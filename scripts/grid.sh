#!/bin/sh
# Discount x reward-noise sweep with ddpg/rmaddpg overlays per cell.
# Noise 0 against `probe`, twice the typical reward magnitude of the config
# (see `grid` in README); run `mecrl grid` directly for other levels.
set -e
cd "$(dirname "$0")/.."
CFG=${1:-scripts/desk.json}
python3 -m mecrl grid --config "$CFG" --gamma 0.95,0.99 --noise 0,probe
