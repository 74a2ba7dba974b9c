#!/bin/sh
# Run the committed mutants listed in test/mutants/table.
#
# usage: sh test/mutants/run.sh [REV]     (REV defaults to HEAD)
#
# Each row of the table names a patch that plants one bug, the test
# executable and test group to run, a test of that group that must fail
# under the patch, and the QCHECK_SEED values to run it at ("-" runs it
# once, unseeded). The script copies the tree at REV into a temporary
# directory under $TMPDIR with `git archive`, builds the named
# executables there and checks that every named test passes unpatched at
# every listed seed. Then, row by row, it applies the patch, rebuilds
# only that row's executable, requires the named test to fail at every
# listed seed, and reverts the patch. A patch that no longer applies
# fails the run: a refactor of the code a mutant patches must refresh
# the patch. Exits 1 if any check fails.
set -eu

rev=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$work"
dir="$work/test/mutants"
failed="$work/failed"
: >"$failed"

trim() { printf '%s' "$1" | sed 's/^ *//; s/ *$//'; }

rows() { grep -v '^#' "$dir/table" | grep -v '^ *$'; }

build() { (cd "$work" && dune build --root . "./$1" 2>&1); }

# The index of test NAME in GROUP, read from the executable's `list`.
index_of() {
  "$work/_build/default/$1" list | awk -v g="$2" -v n="$3." '
    index($0, g) == 1 {
      rest = substr($0, length(g) + 1)
      if (match(rest, /^ +[0-9]+ +/) == 0) next
      idx = substr(rest, 1, RLENGTH); gsub(/ /, "", idx)
      if (substr(rest, RLENGTH + 1) == n) { print idx; exit }
    }'
}

# Run test NAME of GROUP in EXE at SEED; its exit status.
run() {
  exe=$1 group=$2 idx=$3 seed=$4
  if [ "$seed" = - ]; then
    (cd "$work" && "./_build/default/$exe" test "$group" "$idx") >/dev/null 2>&1
  else
    (cd "$work" && QCHECK_SEED=$seed "./_build/default/$exe" test "$group" "$idx") \
      >/dev/null 2>&1
  fi
}

# check WANT: every row's test must pass (WANT=pass, unpatched) or fail
# (WANT=fail, under its patch) at each of its seeds.
check() {
  rows | while IFS='|' read -r patch exe group name seeds; do
    patch=$(trim "$patch") exe=$(trim "$exe") group=$(trim "$group")
    name=$(trim "$name") seeds=$(trim "$seeds")
    if [ "$1" = fail ] && ! patch -s -d "$work" -p1 <"$dir/$patch"; then
      echo "$patch: does not apply" | tee -a "$failed"
      continue
    fi
    if ! out=$(build "$exe"); then
      echo "$patch: $exe does not build" | tee -a "$failed"
      printf '%s\n' "$out"
    else
      idx=$(index_of "$exe" "$group" "$name")
      if [ -z "$idx" ]; then
        echo "$patch: no test \"$name\" in group $group of $exe" | tee -a "$failed"
      else
        for seed in $seeds; do
          if run "$exe" "$group" "$idx" "$seed"; then got=pass; else got=fail; fi
          if [ "$got" = "$1" ]; then
            echo "$patch: $group/$name at seed $seed: $got, as it must"
          else
            echo "$patch: $group/$name at seed $seed: $got, must $1" | tee -a "$failed"
          fi
        done
      fi
    fi
    [ "$1" = fail ] && patch -s -R -d "$work" -p1 <"$dir/$patch"
    :
  done
}

echo "unpatched tree ($rev):"
check pass
echo "mutants:"
check fail
if [ -s "$failed" ]; then
  echo "$(wc -l <"$failed") check(s) failed"
  exit 1
fi
echo "every mutant caught"
