package ecc

import "arcc/internal/rs"

// Scratch is a reusable decode workspace for one Scheme, wrapping the
// underlying rs.Scratch plus the one-entry erasure list the sparing
// scheme's spared decode passes down. Mirroring the rs contract, a Scratch
// belongs to one decode call at a time. Scratches are scheme-specific —
// obtain one from the Scheme whose DecodeBatchInto it will be passed to.
type Scratch struct {
	rs      *rs.Scratch
	erasure [1]int
}
