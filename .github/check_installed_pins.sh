#!/bin/sh
# The installed `friendlab` console script prints the bytes that tier-1 pins
# for three reports that load no numpy: REPORT_SHA256["feasibility from-angles
# json"] and ["feasibility spellings json"], and ROVELLI_500_SHA256["1"], in
# tests/test_cli.py.
#
# Run it from the root of a checkout, with a directory outside the checkout
# for the reports:  sh .github/check_installed_pins.sh DIR
# It exits non-zero when a pin cannot be read or a report differs from it.
set -eu
out=$1
pin() {
  sed -n "/^    \"$1\":\$/{n;s/^ *\"\([0-9a-f]\{64\}\)\",\$/\1/p;}" tests/test_cli.py
}
angles_pin=$(pin "feasibility from-angles json")
spellings_pin=$(pin "feasibility spellings json")
rovelli_pin=$(sed -n 's/^    "1": "\([0-9a-f]\{64\}\)",$/\1/p' tests/test_cli.py)
test -n "$angles_pin"
test -n "$spellings_pin"
test -n "$rovelli_pin"
cd "$out"
friendlab feasibility --from-angles --format json > feasibility.json
echo "$angles_pin  feasibility.json" | sha256sum --check
# each table spells 1/4 four ways (SPELLED_TABLE in tests/test_cli.py)
s='[[0.25,"1/4"],["25e-2","2_5/1_00"]]'
echo "{\"AC\":$s,\"AD\":$s,\"BC\":$s,\"BD\":$s}" > spellings.json
friendlab feasibility --targets spellings.json --format json > spellings-report.json
echo "$spellings_pin  spellings-report.json" | sha256sum --check
# the sequential runs are drawn by the standard library's random.Random
friendlab rovelli --trials 500 --seed 0 --format json > rovelli.json
echo "$rovelli_pin  rovelli.json" | sha256sum --check
