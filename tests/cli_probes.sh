#!/usr/bin/env bash
# The CLI probes: README's lint examples, the huge-power corpus and the
# refusal probes, each run through `python -m meadowkit` from src/.
#
#   bash tests/cli_probes.sh
#
# The interpreter is $PYTHON (default: python).  Scratch files go under
# $RUNNER_TEMP if it is set, else under a new `mktemp -d` directory that
# is removed at exit.  The script stops at the first failed check.
set -eo pipefail
PYTHON=${PYTHON:-python}
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src"
cd "$root"
if [ -n "${RUNNER_TEMP:-}" ]; then
  tmp=$RUNNER_TEMP
else
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
fi

# -e stops at the first nonzero exit, so capture each code first
rc=0; "$PYTHON" -m meadowkit lint --convention division corpora/one_over_zero.mcorpus || rc=$?
test "$rc" -eq 4
rc=0; "$PYTHON" -m meadowkit lint --convention division corpora/theorem_s5.mcorpus || rc=$?
test "$rc" -eq 3
rc=0; "$PYTHON" -m meadowkit lint --convention division corpora/huge_power.mcorpus || rc=$?
test "$rc" -eq 4
# a power over the bound on a row that is decided, or not, before it
expect() {  # expect <exit code> <arguments>: that exit code, no traceback, one stderr line on exit 1; stdout kept in $tmp/out
  rc=0; "$PYTHON" -m meadowkit "${@:2}" > "$tmp/out" 2> "$tmp/err" || rc=$?
  cat "$tmp/out" "$tmp/err"
  test "$rc" -eq "$1"
  if grep -q Traceback "$tmp/err"; then exit 1; fi
  if [ "$rc" -eq 1 ]; then test "$(wc -l < "$tmp/err")" -eq 1; fi
}
expect 0 logic --carrier probe:1,3 --logic weak,kleene,kleene "exists x. x = 1 | 3^100000000 = 0"
expect 1 logic --carrier probe:1,3 "forall x. x = 1 | 3^100000000 = 0"
expect 0 logic --carrier probe:1,3 --logic weak,mccarthy-left,kleene "forall y. exists x. x = y | x^100000000 = 0"
# numbers are ASCII decimal, a bad selector is named, an unreadable corpus is one line
expect 1 eval --carrier gf1_3 1/2
expect 1 eval --carrier gf7 -b x=1_0 x
expect 1 eval "١٢ + 1"
expect 1 lint no-such-file.mcorpus
expect 1 logic --logic bogus,kleene,kleene "1 = 1"
# a GF(p) witness on either side of carriers.LANE_LIMIT
expect 4 axioms --carrier gf61 --extra "x*x = x"
expect 4 axioms --carrier gf67 --extra "x*x = x"
# a witness past the first whole block of a byte sweep (4,913 rows over GF(17))
expect 4 axioms --carrier gf17 --extra "x != 15 | y + z != 0"
grep -qx "FAIL axiom=x != 15 | y + z != 0 samples=4336 witness=x=15,y=0,z=0" "$tmp/out"
# a power over the bound where the prefilter's residues decide: x = -1, y = 1 is a true zero
echo "claim: 1/(x^737550206*y - 1) = 1" > "$tmp/pow.mcorpus"
expect 4 lint --convention division "$tmp/pow.mcorpus"
grep -qxF "statement=0 pos=0 guarded=x^737550206*y - 1 verdict=VIOLATION detail=x=-1,y=1" "$tmp/out"
# a squared factor at the depth bound, 900 levels deep: its two factors are compared without recursing
a="x$(printf ' + 1%.0s' $(seq 894))"
echo "claim: 1/(($a)*($a) + 1) = 1" > "$tmp/square.mcorpus"
expect 0 lint "$tmp/square.mcorpus"
grep -q "detail=OnePlusSumOfSquares" "$tmp/out"
# quantified formulas over byte columns (GF(251): per-row sums and products) and over lists (GF(257))
for p in 251 257; do
  test "$("$PYTHON" -m meadowkit logic --carrier "gf$p" "forall x. exists y. x*y = 1")" = F
  test "$("$PYTHON" -m meadowkit logic --carrier "gf$p" "forall x. x = 0 | (exists y. x*y = 1)")" = T
done
# --classify names the first unbound name, as logic does without it
expect 2 logic --classify -b x=1 "x = y"
# quantifier groups over byte columns past one whole block (17^3 = 4,913 rows over GF(17)):
# the innermost groups split 14 + 3 elements across two blocks
expect 0 logic --carrier gf17 "exists x. exists y. exists z. x*y*z = 16 & x = 16 & y = 16 & z = 16"
grep -qx T "$tmp/out"
expect 0 logic --carrier gf17 "forall x. forall y. forall z. x*y*z != 16 | x != 16 | y != 16 | z != 16"
grep -qx F "$tmp/out"
# a name bound twice is refused; a term may start with `-`, with or without `--`
expect 1 eval -b x=1 -b x=2 x
expect 0 eval "-1/2"
test "$(cat "$tmp/out")" = "-1/2"
expect 0 eval -- "-1/2"
test "$(cat "$tmp/out")" = "-1/2"
# a term that starts with `--` goes after `--`
expect 0 eval -- "--1"
test "$(cat "$tmp/out")" = 1
# so may an --extra law and a corpus path
expect 0 axioms --carrier gf5 --extra -x=0-x
printf 'claim: 1/x = 1\n' > "$tmp/-probe.mcorpus"
cd "$tmp"
expect 4 lint -probe.mcorpus
cd "$root"
# a power whose own base is undefined is undefined, though its total value is over the bound
expect 3 eval --mode punch-div-all -b x=0 "(2 + 1/x)^10000000000"
for f in bochvar kleene mccarthy-left mccarthy-right; do expect 0 tables "$f"; done
# axioms --samples and --seed are ASCII decimal too
expect 1 axioms --samples 1_0 --extra "x = x"
expect 1 axioms --seed ٣ --extra "x = x"
# argparse refusals, over-long number text and non-ASCII whitespace are one line
expect 1 eval --mode bogus 1
expect 1 lint --convention bogus x
grep -q "^meadowkit lint: error:" "$tmp/err"
expect 1 tables bogus
expect 1 eval "$(printf '1%.0s' $(seq 5000))"
expect 1 eval -b x="$(printf '1%.0s' $(seq 5000))" x
expect 1 eval $'1 +\xe3\x80\x801'
expect 1 eval $'1 +\xc2\xa01'
# top-level refusals and subcommand help through the subparser
# dispatch of each Python version: a command fills only its own parser
expect 0 eval --help
grep -q "^usage: meadowkit eval" "$tmp/out"
expect 1 bogus
# a command's leftover arguments are refused by the top-level parser
expect 1 eval 1 2
grep -qx "meadowkit: error: unrecognized arguments: 2" "$tmp/err"
# help on a narrow terminal, from every parser: all of a build's
# help formatters share the width read once in cli.build_parser
export COLUMNS=60
expect 0 --help
for c in eval logic axioms tables lint; do expect 0 "$c" --help; done
