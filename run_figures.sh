#!/bin/bash
# Regenerate every figure of the paper, the ablations and the fault,
# recovery and profile artifacts; outputs under results/ of the checkout
# this script lives in. Every output is deterministic, so a run on an
# unchanged tree leaves `git status results/` clean.
set -e
cd "$(dirname "$0")"
cargo build --release -p dpml-bench
BIN=${CARGO_TARGET_DIR:-target}/release
mkdir -p results
$BIN/fig1 | tee results/fig1.txt >/dev/null
echo fig1 done
for c in a b c d; do
  $BIN/fig4_7_leader_sweep --cluster $c | tee results/fig4_7_$c.txt >/dev/null
  echo fig4_7 $c done
done
$BIN/fig8_sharp | tee results/fig8.txt >/dev/null
echo fig8 done
$BIN/fig9_libraries | tee results/fig9.txt >/dev/null
echo fig9 done
$BIN/fig10_scale | tee results/fig10.txt >/dev/null
echo fig10 done
$BIN/fig11_apps | tee results/fig11.txt >/dev/null
echo fig11 done
$BIN/model_check | tee results/model_check.txt >/dev/null
echo model_check done
$BIN/ablate_fairness | tee results/ablate_fairness.txt >/dev/null
$BIN/ablate_pipeline | tee results/ablate_pipeline.txt >/dev/null
$BIN/ablate_sharp_groups | tee results/ablate_sharp_groups.txt >/dev/null
# These four write only their JSON artifact; the tables go to stdout.
$BIN/ablate_placement >/dev/null
echo ablations done
$BIN/recovery >/dev/null
echo recovery done
$BIN/resilience >/dev/null
echo resilience done
$BIN/profile >/dev/null
echo profile done
echo ALL_FIGURES_DONE
