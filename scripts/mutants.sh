#!/usr/bin/env bash
# Committed mutants: each scripts/mutants/NN-name.patch breaks the product
# on purpose, and the tests its first line names must then fail.
#
#   scripts/mutants.sh          every patch
#   scripts/mutants.sh 02       the patches whose names start with 02
#   scripts/mutants.sh 06 07    those starting with 06, then with 07
#
# A patch's first line is `# tests: <cargo test arguments>`; the diff
# follows (git apply skips the header).  Each patch is applied to a scratch
# `git worktree` of HEAD (so commit first: uncommitted edits are not
# mutated) that builds in `mutants/` under CARGO_TARGET_DIR (default
# target/), so only the mutated crate and its dependents rebuild between
# mutants.  The script prints each mutant with the tests that killed it and
# exits non-zero when a mutant survives or a patch no longer applies.
#
# The mutants never build where a checkout builds: cargo names a
# workspace's artifacts by paths relative to its root and reuses them while
# they are newer than the sources, so a checkout sharing the mutants'
# directory would run a mutated crate, or a test binary whose fixtures are
# read from the deleted worktree, on its next build.
#
# verify.sh runs every patch as its last stage.  Each mutant costs an
# incremental debug rebuild: the eight step-loop mutants (02, 03, 04, 34,
# 35, 39, 43, 46) take about 30 s together on a 2-vCPU host with a warm
# mutants/ directory, and all fifty about three minutes from an empty one.
#
# A mutant's tests run under a ten-minute timeout, after its build: a
# mutant that hangs them (a daemon that never sends its FIN, say, under a
# test that reads to EOF) is reported as killed by timeout, so this script
# and verify.sh finish either way.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
# A relative CARGO_TARGET_DIR is relative to the repo root, as in verify.sh.
target="${CARGO_TARGET_DIR:-target}"
[[ "$target" == /* ]] || target="$root/$target"
export CARGO_TARGET_DIR="$target/mutants"

work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
tree="$work/tree"
git worktree add --detach --quiet "$tree" HEAD
trap 'git worktree remove --force "$tree"; rm -rf "$work"' EXIT

patches=()
for prefix in "${@:-}"; do
    patches+=("scripts/mutants/$prefix"*.patch)
done
status=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    header=$(head -n 1 "$patch")
    if [[ "$header" != "# tests: "* ]]; then
        echo "$name: first line must be '# tests: <cargo test arguments>'"
        status=1
        continue
    fi
    read -r -a tests <<< "${header#\# tests: }"
    if ! git -C "$tree" apply "$root/$patch"; then
        echo "$name: no longer applies to HEAD"
        status=1
        continue
    fi
    code=0
    if (cd "$tree" && cargo test --offline -q --no-run "${tests[@]}") > /dev/null 2>&1; then
        log=$(cd "$tree" && timeout 600 cargo test --offline -q "${tests[@]}" 2>&1) || code=$?
    else
        code=build
    fi
    case $code in
    0)
        echo "$name: SURVIVED ${tests[*]}"
        status=1
        ;;
    build)
        echo "$name: does not build, so it tests nothing"
        status=1
        ;;
    124) echo "$name: killed by timeout (600 s)" ;;
    *)
        killed=$(sed -n '/^failures:$/,/^test result/s/^    \([a-z_:0-9]*\)$/\1/p' <<< "$log" | sort -u | tr '\n' ' ')
        echo "$name: killed by $killed"
        ;;
    esac
    git -C "$tree" checkout --quiet -- .
done
exit "$status"
