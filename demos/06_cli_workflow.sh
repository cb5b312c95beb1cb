#!/bin/sh
# End-to-end command-line workflow on temporary files: simulate a study,
# fit a regression model, diagnose it, fit a mortality curve, and run the
# Lee-Carter benchmark on rates and on deaths with exposures.  Every
# command takes --seed and writes its outputs under --out-dir.
#
# Run from the repository root:
#
#     sh demos/06_cli_workflow.sh
set -e

OUT=$(mktemp -d)
DATA=tests/data
echo "writing to $OUT"

echo
echo "== simulate a two-group study =="
matlife simulate --study --n-per-group 200 --seed 3 --out-dir "$OUT/sim"
head -3 "$OUT/sim/sample.csv"

echo
echo "== fit a matrix regression model to it =="
matlife fit-pi "$OUT/sim/sample.csv" --structure coxian --order 2 \
    --family weibull --max-outer 200 --seed 0 --out-dir "$OUT/pi"
python3 -c "import json; d = json.load(open('$OUT/pi/model.json')); \
print('family:', d['family'], ' order:', len(d['pi']))"

echo
echo "== diagnose the fit (information criteria, residual slope) =="
matlife diagnose "$OUT/sim/sample.csv" --model "$OUT/pi/model.json" \
    --out-dir "$OUT/diag"

echo
echo "== fit a lifetime model without covariates =="
matlife simulate --model "$OUT/pi/model.json" --n 400 --seed 5 \
    --out-dir "$OUT/sim2" 2>/dev/null || \
    echo "(regression models cannot be sampled without covariates; expected)"

echo
echo "== mortality curve from the synthetic life table =="
matlife fit-mortality "$DATA/synthetic_Mx_1x1.txt" --column Female \
    --year-from 2000 --year-to 2005 --order 2 --family gompertz \
    --em-iters 150 --max-evals 800 --seed 7 --out-dir "$OUT/mort"
head -3 "$OUT/mort/curve.csv"

echo
echo "== Lee-Carter factorization of the same table =="
matlife lee-carter "$DATA/synthetic_Mx_1x1.txt" --column Female \
    --out-dir "$OUT/lc"
head -3 "$OUT/lc/age_profile.csv"

echo
echo "== Lee-Carter from death counts and exposures =="
matlife lee-carter "$DATA/synthetic_Deaths_1x1.txt" --kind deaths \
    --exposures "$DATA/synthetic_Exposures_1x1.txt" --column Male \
    --year-from 1990 --out-dir "$OUT/lc_deaths"
head -3 "$OUT/lc_deaths/period_index.csv"

echo
echo "done; outputs left in $OUT"
