#!/usr/bin/env bash
# Kept mutants: every ci/mutants/*.patch breaks the program on purpose,
# and its `# test:` line names the command that must fail on it. Run from
# anywhere in the repository:
#
#   bash ci/mutants.sh                  # every mutant
#   bash ci/mutants.sh full-by-count    # the named ones
#
# The patches are applied one at a time to a throwaway `git worktree` of
# HEAD (so commit first), reverted after each command, and built in one
# shared target directory. The script fails if a command fails on the
# unmutated tree, if a patch does not apply, if a mutant does not compile,
# or if a mutant survives: its command passes.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
tree="$work/tree"
git -C "$root" worktree add --quiet --detach "$tree" HEAD
cleanup() {
    git -C "$root" worktree remove --force "$tree"
    rm -rf "$work"
}
trap cleanup EXIT
export CARGO_TARGET_DIR="$work/target"

if [ $# -gt 0 ]; then
    patches=()
    for name in "$@"; do patches+=("$root/ci/mutants/$name.patch"); done
else
    patches=("$root"/ci/mutants/*.patch)
fi

# Every command must pass on the unmutated tree, or a failure would
# prove nothing about the mutant.
declare -A checked=()
for patch in "${patches[@]}"; do
    cmd=$(sed -n 's/^# test: //p' "$patch")
    if [ -z "$cmd" ]; then
        echo "$(basename "$patch"): no '# test:' line" >&2
        exit 2
    fi
    [ -n "${checked[$cmd]:-}" ] && continue
    if ! (cd "$tree" && bash -c "$cmd") >"$work/baseline.log" 2>&1; then
        echo "fails without a mutant: $cmd" >&2
        tail -n 30 "$work/baseline.log" >&2
        exit 2
    fi
    checked[$cmd]=1
done

survivors=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    cmd=$(sed -n 's/^# test: //p' "$patch")
    git -C "$tree" apply "$patch"
    log="$work/$name.log"
    if (cd "$tree" && bash -c "$cmd") >"$log" 2>&1; then
        echo "SURVIVED  $name: $cmd"
        survivors=$((survivors + 1))
    elif grep -q "could not compile" "$log"; then
        echo "$name does not compile:" >&2
        tail -n 30 "$log" >&2
        exit 2
    else
        failed=$(grep -c -- '^---- .* stdout ----$' "$log" || true)
        echo "killed    $name ($failed failing tests)"
    fi
    git -C "$tree" checkout --quiet -- .
done

if [ "$survivors" -gt 0 ]; then
    echo "$survivors mutant(s) survived" >&2
    exit 1
fi
echo "all ${#patches[@]} mutants killed"
