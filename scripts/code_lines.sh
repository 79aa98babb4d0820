#!/usr/bin/env sh
# Code lines of the C++ sources, as ROADMAP.md and CHANGES.md quote them:
# the non-blank lines of the .cpp and .hpp files that are not // comment
# lines, for each src/ module, for src/ as a whole and for tests/.
# Usage: ./scripts/code_lines.sh   (no options; runs from any directory)
set -eu

cd "$(dirname "$0")/.."

count() {
  find "$1" -type f \( -name '*.cpp' -o -name '*.hpp' \) -exec cat {} + |
    grep -v -e '^[[:space:]]*$' -e '^[[:space:]]*//' | wc -l | tr -d ' '
}

for module in src/*/; do
  printf '%-12s %6s\n' "${module%/}" "$(count "$module")"
done
printf '%-12s %6s\n' "src/" "$(count src)"
printf '%-12s %6s\n' "tests/" "$(count tests)"
