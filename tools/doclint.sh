#!/usr/bin/env bash
# doclint: grep-based sanity checks for the repo's markdown documentation.
#
#   1. Every intra-repo markdown link [text](path) resolves to a real file
#      (http(s)/mailto/#anchor links are skipped; anchors are stripped).
#   2. Every backticked flag reference `-foo` in README.md and docs/*.md
#      names a real flag of cmd/counterd or a cmd/countertool subcommand
#      (flag names are extracted from the Go flag registrations, so the
#      docs can never drift ahead of — or behind — the binaries).
#   3. Every backticked repo path (`docs/X.md`, `internal/pkg`, `cmd/...`,
#      `examples/...`, `tools/...`) points at something that exists.
#   4. Every route reference in README.md and docs/*.md — `GET /x`,
#      `POST /x`, or a curl of `localhost:PORT/x` — carries the /v1 prefix,
#      the one spelling the HTTP surface serves; only /metrics, where
#      Prometheus scrapes, is also served without it.
#
# Run from the repository root: bash tools/doclint.sh  (or: make doclint)
set -u

fail=0
err() {
  echo "doclint: $*" >&2
  fail=1
}

docs=(README.md docs/*.md)

# --- 1. intra-repo markdown links --------------------------------------
for md in "${docs[@]}"; do
  base=$(dirname "$md")
  # Extract every ](target) occurrence; tolerate multiple per line.
  while IFS= read -r target; do
    case $target in
    http://* | https://* | mailto:* | \#*) continue ;;
    esac
    path=${target%%#*} # strip anchor
    [ -z "$path" ] && continue
    if [ ! -e "$base/$path" ] && [ ! -e "$path" ]; then
      err "$md: broken link ($target)"
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done

# --- 2. flag references -------------------------------------------------
# Real flags, straight from the flag registrations in the command sources.
flags=$(grep -ohE '(fs|flag)\.[A-Za-z0-9]*Var?\([^,]*, *"[^"]+"|(fs|flag)\.(String|Int|Int64|Uint64|Float64|Bool|Duration)\("[^"]+"' \
  cmd/counterd/*.go cmd/countertool/*.go |
  grep -oE '"[^"]+"' | tr -d '"' | sort -u)
# Toolchain flags the docs legitimately mention (go test / kill).
allow="9 race bench benchtime run fuzz fuzztime v h o"

for md in "${docs[@]}"; do
  while IFS= read -r tok; do
    name=${tok#\`-}
    ok=0
    for f in $flags $allow; do
      if [ "$f" = "$name" ]; then
        ok=1
        break
      fi
    done
    if [ "$ok" = 0 ]; then
      err "$md: flag reference \`-$name\` matches no counterd/countertool flag"
    fi
  done < <(grep -ohE '`-[a-zA-Z0-9][a-zA-Z0-9-]*' "$md" | sort -u)
done

# --- 3. backticked repo paths -------------------------------------------
for md in "${docs[@]}"; do
  while IFS= read -r tok; do
    path=${tok#\`}
    path=${path%\`}
    # Only judge things that look like repo paths: known top-level roots.
    case $path in
    docs/* | internal/* | cmd/* | examples/* | tools/* | deploy/* | bin/*) ;;
    *) continue ;;
    esac
    # Skip command lines, globs, and placeholders.
    case $path in
    *' '* | *'*'* | *'{'* | *'<'* | *'…'*) continue ;;
    esac
    # bin/ artifacts are build outputs, not checked-in files.
    case $path in bin/*) continue ;; esac
    if [ ! -e "$path" ]; then
      err "$md: path reference \`$path\` does not exist"
    fi
  done < <(grep -ohE '`[A-Za-z0-9_./-]+`' "$md" | sort -u)
done

# --- 4. one spelling of each route --------------------------------------
for md in "${docs[@]}"; do
  while IFS= read -r hit; do
    err "$md:${hit%%:*}: route without the /v1 prefix (${hit#*:})"
  done < <(grep -noE '(GET|POST|PUT|DELETE) +/[A-Za-z{][^ `)"]*|localhost:[0-9]+/[A-Za-z][^ `)"'"'"']*' "$md" |
    grep -vE '^[0-9]+:((GET|POST|PUT|DELETE) +|localhost:[0-9]+)/(v1/|metrics)')
done

if [ "$fail" = 0 ]; then
  echo "doclint: ${#docs[@]} files clean"
fi
exit $fail
