#!/usr/bin/env bash
# Formats (or with --check, verifies) every C++ file the format-check CI job
# gates, using the same pinned clang-format major as CI so local runs and the
# gate can never disagree. Run from anywhere inside the repo.
#
#   scripts/format_all.sh           # rewrite files in place
#   scripts/format_all.sh --check   # exit nonzero on any drift (CI mode)
set -euo pipefail

PINNED_MAJOR=18  # keep in sync with clang-format-version in ci.yml

cd "$(git rev-parse --show-toplevel)"

CLANG_FORMAT="${CLANG_FORMAT:-}"
if [[ -z "${CLANG_FORMAT}" ]]; then
  if command -v "clang-format-${PINNED_MAJOR}" >/dev/null 2>&1; then
    CLANG_FORMAT="clang-format-${PINNED_MAJOR}"
  elif command -v clang-format >/dev/null 2>&1; then
    CLANG_FORMAT=clang-format
  else
    echo "error: clang-format not found (want major ${PINNED_MAJOR});" \
         "set CLANG_FORMAT to override" >&2
    exit 2
  fi
fi

version="$("${CLANG_FORMAT}" --version)"
if ! grep -q "clang-format version ${PINNED_MAJOR}\." <<<"${version}"; then
  echo "warning: ${CLANG_FORMAT} is '${version}', CI pins major" \
       "${PINNED_MAJOR} — results may differ from the gate" >&2
fi

mode=(-i)
if [[ "${1:-}" == "--check" ]]; then
  mode=(--dry-run --Werror)
fi

git ls-files 'src/**/*.h' 'src/**/*.cc' 'tests/**/*.cc' 'examples/**/*.cc' \
  | xargs "${CLANG_FORMAT}" "${mode[@]}"
