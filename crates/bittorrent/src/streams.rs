//! Keyed random streams: every draw of the crate's engines comes from a
//! ChaCha8 generator seeded from `seed ^ domain` and positioned on one
//! stream id. The domain separates the stream families, so no two
//! families share a key under the same seed; within a family each caller
//! packs its stream id from the coordinates that identify the draw
//! (round, peer, event or sequence number). Creating a generator is cheap
//! and draws nothing, so results never depend on which thread or in which
//! order the streams are opened.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Indexed-round rechoke streams, one per `(round, peer stream)` pair
/// (`b"parallel"`).
pub(crate) const PEER_ROUND: u64 = 0x7061_7261_6c6c_656c;
/// Session membership streams, one per `(round, event)` pair
/// (`b"session_"`).
pub(crate) const SESSION: u64 = 0x7365_7373_696f_6e5f;
/// Fault-plane streams, one per `(round, fault event)` pair
/// (`b"faults!_"`).
pub(crate) const FAULTS: u64 = 0x6661_756c_7473_215f;
/// Universe coordinator streams, one per `(round, event)` pair
/// (`b"universe"`).
pub(crate) const UNIVERSE: u64 = 0x756e_6976_6572_7365;
/// Event-core streams, one per scheduled event's sequence number
/// (`b"eventseq"`).
pub(crate) const EVENT_SEQ: u64 = 0x6576_656e_7473_6571;

/// The generator of stream `stream` in family `domain` under `seed`.
/// `#[inline]`: the indexed round opens one per peer per round (the
/// swarm module's inlining contract).
#[inline]
#[must_use]
pub(crate) fn keyed(seed: u64, domain: u64, stream: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ domain);
    rng.set_stream(stream);
    rng
}

/// Packs a round and an in-round index into one stream id: the round in
/// the high 32 bits, the index in the low 32. Both stay below 2³² (a 10 s
/// round cadence would take 1 300 years to wrap).
#[inline]
#[must_use]
pub(crate) fn round_stream(round: u64, index: u64) -> u64 {
    debug_assert!(index < u64::from(u32::MAX), "stream index exceeds 32 bits");
    (round << 32) | index
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn seed_domain_and_stream_each_separate_streams() {
        let base = keyed(7, SESSION, round_stream(3, 1)).next_u64();
        assert_eq!(base, keyed(7, SESSION, round_stream(3, 1)).next_u64());
        for other in [
            keyed(8, SESSION, round_stream(3, 1)),
            keyed(7, UNIVERSE, round_stream(3, 1)),
            keyed(7, SESSION, round_stream(4, 1)),
            keyed(7, SESSION, round_stream(3, 2)),
        ] {
            let mut other = other;
            assert_ne!(base, other.next_u64());
        }
    }
}
