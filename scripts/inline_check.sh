#!/bin/sh
# The directory's lookups, (*Directory).Probe and ProbeSlot, sit a few
# units under the compiler's inlining budget of 80 (costs 70 and 69 with
# Go 1.24; 77 and 76 while probing wrapped at a power-of-two mask), and the access walk's eviction paths call ProbeSlot once per
# evicted line. A change that pushes either over the budget turns those
# lookups into calls without failing any test: the compiler's -m report
# must still say both can inline, and that every ProbeSlot call in
# internal/core/access.go was inlined.
set -eu
cd "$(dirname "$0")/.."

coh=$(go build -gcflags=-m ./internal/coherence 2>&1)
for fn in Probe ProbeSlot; do
	echo "$coh" | grep -qE "can inline \(\*Directory\)\.$fn( |\$)" \
		|| { echo "inline_check.sh: (*Directory).$fn no longer inlines" >&2; exit 1; }
done

core=$(go build -gcflags=-m ./internal/core 2>&1)
sites=$(grep -n 's\.dir\.ProbeSlot(' internal/core/access.go | cut -d: -f1)
[ -n "$sites" ] || { echo "inline_check.sh: no ProbeSlot call left in internal/core/access.go" >&2; exit 1; }
for line in $sites; do
	echo "$core" | grep -q "^internal/core/access.go:$line:[0-9]*: inlining call to coherence\.(\*Directory)\.ProbeSlot\$" \
		|| { echo "inline_check.sh: the ProbeSlot call at internal/core/access.go:$line is not inlined" >&2; exit 1; }
done
echo "inline_check.sh: OK"
