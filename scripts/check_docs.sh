#!/usr/bin/env bash
# Documentation consistency check, run as a tier-1 ctest:
#
#   1. every relative markdown link in README.md and docs/*.md resolves to
#      an existing file (anchors stripped; external schemes skipped), and
#   2. every `./build/bench/<target>` command in README.md or any docs/*.md
#      names a bench target that actually exists in bench/CMakeLists.txt, and
#   3. every backticked repo path under src/, tests/, bench/, scripts/,
#      perfbench/ or examples/ in those docs exists, so docs cannot keep
#      naming code after it is deleted.
#
# Usage: scripts/check_docs.sh    (from anywhere; paths resolve to the repo)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
fail=0

# --- 1. relative links resolve -------------------------------------------------
for doc in "$repo"/README.md "$repo"/docs/*.md; do
  dir="$(dirname "$doc")"
  # Markdown inline links: capture the (...) part, one per line.  Reference
  # definitions and autolinks are not used in this repo's docs.
  while IFS= read -r link; do
    # Skip external schemes and pure in-page anchors.
    case "$link" in
      http://*|https://*|mailto:*|chrome://*|\#*) continue ;;
    esac
    target="${link%%#*}"            # strip the anchor
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ]; then
      echo "BROKEN LINK: $doc -> ($link)"
      fail=1
    fi
  done < <(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//')
done

# --- 2. documented bench commands exist in the build ---------------------------
# Discover docs by glob (same set as the link check) rather than a hard-coded
# list, so a new doc's bench commands are covered automatically.
cmake_benches="$repo/bench/CMakeLists.txt"
for doc in "$repo"/README.md "$repo"/docs/*.md; do
  while IFS= read -r target; do
    if ! grep -Eq "(g80_bench\($target\)|add_executable\($target )" \
         "$cmake_benches"; then
      echo "MISSING BENCH TARGET: ${doc#"$repo"/} names './build/bench/$target'" \
           "but bench/CMakeLists.txt defines no such target"
      fail=1
    fi
  done < <(grep -o '\./build/bench/[A-Za-z0-9_]*' "$doc" \
           | sed 's|\./build/bench/||' | sort -u)
done

# --- 3. documented repo paths exist -------------------------------------------
# A token may be a glob (`src/apps/*/*.h`) or carry arguments after a space.
# A bare bench/<name> or examples/<name> names the program built from
# <name>.cc or <name>.cpp.
for doc in "$repo"/README.md "$repo"/docs/*.md; do
  while IFS= read -r path; do
    path="${path%% *}"
    if compgen -G "$repo/$path" > /dev/null; then continue; fi
    case "$path" in
      bench/*|examples/*)
        if [ -e "$repo/$path.cc" ] || [ -e "$repo/$path.cpp" ]; then
          continue
        fi
        ;;
    esac
    echo "MISSING PATH: ${doc#"$repo"/} names '$path' but the repo has no" \
         "such file"
    fail=1
  done < <(grep -oE '`(src|tests|bench|scripts|perfbench|examples)/[^`]*`' \
           "$doc" | tr -d '`' | sort -u)
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: all documentation links, bench targets and repo paths resolve"
