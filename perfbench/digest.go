package main

import (
	"crypto/sha256"
	"encoding/hex"
)

// golden are the sha256 digests of the outputs of the fixed-input
// workloads on a correct tree: the result table JSON, byte for byte.
// A change that alters a table must update its digest here and say why.
var golden = map[string]string{
	"sweep-large-n": "e82b626b81a87ad14d982e023752937c3be70e415478dd3b210d3f64cb2bfa72",
	"fabric-churn":  "e2a1a6d581af6eef51963bc6caf195f204a2c927121c9329494dd612761306b0",
	"certify-star":  "f3a0212a24ebee02196c144b6cac1ac4f42ce3f8eae1baf176e7b923a0e91421",
	"certify-chain": "aafca20898cb0e7bdce89ec477bd60c450bd4737dd930774e1dc0fb6ebc69e65",
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// verify checks an output against its golden digest, records the
// digest seen, and reports whether it matched; a mismatch is logged as
// a failed operation.
func (b *bench) verify(name string, out []byte) bool {
	got := digest(out)
	b.digests[name] = got
	if want := golden[name]; got != want {
		b.log.fail("%s: output digest %s, want %s", name, got, want)
		return false
	}
	return true
}
