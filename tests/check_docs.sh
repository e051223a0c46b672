#!/bin/sh
# Documentation consistency checks (registered in ctest and run as the CI
# docs job):
#   1. every intra-repo markdown link resolves to an existing file;
#   2. every bench_* target registered in bench/CMakeLists.txt has a row
#      in docs/BENCHMARKS.md;
#   3. every page under docs/ is reachable: linked from at least one
#      other markdown file (no orphan documentation);
#   4. docs/PERFORMANCE.md exists and covers the crypto fast-path
#      surface: both knobs, the SHA-1 and SHA-256 kernels, and the
#      benches whose output the logical-cost contract protects.
# Exits non-zero with one line per violation.
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root" || exit 1

status=0

# --- 1. intra-repo markdown links ---------------------------------------
# Markdown files under version-controlled docs locations (skip build dirs
# and third-party trees; PAPERS.md is a verbatim retrieval artifact whose
# extraction left dangling image refs we do not own).
md_files=$(find . -name '*.md' \
  -not -path './build*' -not -path './.git/*' -not -path '*/third_party/*' \
  -not -name 'PAPERS.md')

for md in $md_files; do
  dir=$(dirname -- "$md")
  # Inline links: capture the (target) of [text](target). One per line;
  # tolerate several links per source line.
  links=$(grep -o '\[[^]]*\]([^)]*)' "$md" 2>/dev/null |
    sed 's/^\[[^]]*\](//; s/)$//')
  [ -n "$links" ] || continue
  for link in $links; do
    case $link in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target=${link%%#*}       # strip fragment
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "BROKEN LINK: $md -> $link"
      status=1
    fi
  done
done

# --- 2. bench coverage in docs/BENCHMARKS.md ----------------------------
benches=$(grep -o 'zh_add_bench([a-z0-9_]*' bench/CMakeLists.txt |
  sed 's/zh_add_bench(//')
if [ -z "$benches" ]; then
  echo "NO BENCH TARGETS FOUND in bench/CMakeLists.txt (check the parser)"
  status=1
fi
for bench in $benches; do
  if ! grep -q "\`$bench\`" docs/BENCHMARKS.md; then
    echo "UNDOCUMENTED BENCH: $bench missing from docs/BENCHMARKS.md"
    status=1
  fi
done

# --- 3. no orphan docs --------------------------------------------------
# Every docs/*.md must be the target of at least one intra-repo link from
# some *other* markdown file, so each page stays discoverable by reading.
docs_pages=$(find docs -name '*.md' 2>/dev/null)
for page in $docs_pages; do
  base=$(basename -- "$page")
  linked=0
  for md in $md_files; do
    [ "$md" = "./$page" ] && continue
    if grep -o '\[[^]]*\]([^)]*)' "$md" 2>/dev/null |
       grep -q "($base\|/$base\|$base#\|/$base#"; then
      linked=1
      break
    fi
  done
  if [ "$linked" -eq 0 ]; then
    echo "ORPHAN DOC: $page is linked from no other markdown file"
    status=1
  fi
done

# --- 4. performance-docs coverage ---------------------------------------
# The fast paths are only safe while their invariants stay written down:
# PERFORMANCE.md must name every kernel, both override knobs, and the
# benches whose byte-identity the logical-cost contract guarantees.
perf_doc=docs/PERFORMANCE.md
if [ ! -f "$perf_doc" ]; then
  echo "MISSING DOC: $perf_doc"
  status=1
else
  for token in ZH_SHA1_IMPL ZH_CHAIN_MEMO scalar SHA-NI sha256_shani \
               bench_micro_nsec3 bench_cve_cost bench_dos_amplification; do
    if ! grep -q "$token" "$perf_doc"; then
      echo "INCOMPLETE PERFORMANCE DOC: $perf_doc does not mention $token"
      status=1
    fi
  done
fi

if [ "$status" -eq 0 ]; then
  echo "check_docs: all markdown links resolve;" \
       "all $(echo "$benches" | wc -l | tr -d ' ') bench targets documented;" \
       "all $(echo "$docs_pages" | wc -l | tr -d ' ') docs pages linked;" \
       "performance doc covers the crypto fast-path surface."
fi
exit "$status"
