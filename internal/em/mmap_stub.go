//go:build !linux

package em

import "errors"

// errMmapUnsupported makes NewStoreDisk's StoreMmap path fall back to
// the portable file store on platforms without the linux mmap wiring.
var errMmapUnsupported = errors.New("em: mmap store not supported on this platform")

// newMmapSlots always fails here; the caller falls back to fileSlots,
// which is the documented graceful-degradation path.
func newMmapSlots(string, int64) (slotStore, error) { return nil, errMmapUnsupported }
