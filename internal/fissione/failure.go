package fissione

import (
	"fmt"

	"armada/internal/kautz"
)

// FailAbrupt simulates a crash-stop failure of the identified peer: unlike
// a graceful Leave, everything the peer stored vanishes with it. The
// surviving peers then run the same region-takeover protocol a graceful
// departure uses — FISSIONE's self-stabilization restores the prefix cover
// and the neighborhood invariant before the next query.
//
// Without replication (degree 1, the paper's model) the crashed peer's
// objects are permanently lost. With SetReplicas(r > 1), the takeover's
// repair pass restores them from the surviving members of each affected
// replica group, so a crash loses data only if it wipes a whole group —
// impossible for the serialized single-crash events this simulator models.
//
// The network remains fully consistent when FailAbrupt returns; tests may
// call Audit to verify. Failing below the three seed regions is rejected.
func (n *Network) FailAbrupt(id kautz.Str) error {
	p, ok := n.Peer(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchPeer, id)
	}
	if n.Size() <= 3 {
		return ErrTooSmall
	}
	// The crash destroys the peer's data; the takeover protocol then
	// reassigns its (now empty) region exactly as a departure would.
	lost := p.clearStore()
	if err := n.Leave(id); err != nil {
		return fmt.Errorf("fissione: stabilization after crash of %q (%d objects lost): %w", id, lost, err)
	}
	return nil
}
