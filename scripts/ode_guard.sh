#!/bin/sh
# Test-only guard for internal/ode. The thermal network advances with
# its exact propagator; the paper's RK4 and the other integrators are
# the tests' oracle and ablation tools. This fails if any non-test
# package imports nanobus/internal/ode (`go list`'s .Imports excludes test
# imports).
# Usage: scripts/ode_guard.sh  (from anywhere inside the repo)
set -eu
cd "$(dirname "$0")/.."

pkg=nanobus/internal/ode
importers=$(go list -f "{{range .Imports}}{{if eq . \"$pkg\"}}{{\$.ImportPath}} {{end}}{{end}}" ./...)
if [ -n "$importers" ]; then
    echo "ode guard: non-test packages import $pkg: $importers" >&2
    exit 1
fi
echo "ode guard: no non-test package imports $pkg"
