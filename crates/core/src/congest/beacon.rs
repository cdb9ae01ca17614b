//! Message types of Algorithm 2.

use std::fmt;
use std::iter;
use std::ops::Deref;
use std::sync::Arc;

use bcount_sim::{MessageSize, Pid};
use serde::{Deserialize, Serialize};

/// The longest beacon path stored inline in a [`BeaconPath`].
///
/// Honest paths have at most `phase + 2` entries (longer ones fail the
/// validity check), and the benchmarked `H(4096, 8)` runs never send a
/// path longer than eight IDs (their largest message is `2 + 8·64`
/// bits), so every honest forward there fits inline.
pub const INLINE_PATH: usize = 8;

/// The visited-node chain of a beacon: origin first, most recent
/// forwarder last.
///
/// A path of at most [`INLINE_PATH`] entries is stored inline — a length
/// and a fixed array, so building, forwarding and dropping it never touch
/// the heap. A longer one (a high phase, or a Byzantine fabrication) is a
/// shared `Arc<[Pid]>`, built with one allocation and cloned by a
/// reference-count bump. Every constructor picks the form from the length
/// alone, so a path's form follows from its entries.
///
/// A path derefs to its entries (`&[Pid]`); its equality and `Debug` are
/// the slice's.
#[derive(Clone)]
pub struct BeaconPath(Repr);

#[derive(Clone)]
enum Repr {
    /// `ids[..len]` are the entries; the rest is padding.
    Inline { len: u8, ids: [Pid; INLINE_PATH] },
    /// More than [`INLINE_PATH`] entries.
    Shared(Arc<[Pid]>),
}

impl BeaconPath {
    /// `path` with `me` appended: what a forwarder broadcasts (an
    /// originator extends the empty path). Inline up to [`INLINE_PATH`]
    /// entries, else one shared allocation.
    #[inline]
    pub fn extended(path: &[Pid], me: Pid) -> Self {
        let len = path.len();
        if len < INLINE_PATH {
            let mut ids = [Pid(0); INLINE_PATH];
            ids[..len].copy_from_slice(path);
            ids[len] = me;
            BeaconPath(Repr::Inline {
                len: len as u8 + 1,
                ids,
            })
        } else {
            BeaconPath(Repr::Shared(
                path.iter().copied().chain(iter::once(me)).collect(),
            ))
        }
    }

    /// The claimed origin (`None` for an empty path).
    pub fn origin(&self) -> Option<Pid> {
        self.first().copied()
    }

    /// Whether the path is stored inline (at most [`INLINE_PATH`]
    /// entries) rather than shared.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Deref for BeaconPath {
    type Target = [Pid];

    #[inline]
    fn deref(&self) -> &[Pid] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Shared(ids) => ids,
        }
    }
}

/// Fills the path straight from the iterator, in order: inline while it
/// fits, else a shared copy of the inline prefix and the rest (one
/// allocation when the iterator's length is known, as for a fabricated
/// path).
impl FromIterator<Pid> for BeaconPath {
    fn from_iter<I: IntoIterator<Item = Pid>>(entries: I) -> Self {
        let mut entries = entries.into_iter();
        let mut ids = [Pid(0); INLINE_PATH];
        for (len, slot) in ids.iter_mut().enumerate() {
            match entries.next() {
                Some(id) => *slot = id,
                None => {
                    return BeaconPath(Repr::Inline {
                        len: len as u8,
                        ids,
                    })
                }
            }
        }
        match entries.next() {
            None => BeaconPath(Repr::Inline {
                len: INLINE_PATH as u8,
                ids,
            }),
            Some(next) => BeaconPath(Repr::Shared(
                ids.into_iter()
                    .chain(iter::once(next))
                    .chain(entries)
                    .collect(),
            )),
        }
    }
}

impl PartialEq for BeaconPath {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for BeaconPath {}

impl fmt::Debug for BeaconPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A message of the CONGEST counting protocol.
///
/// A beacon carries its path by value as a [`BeaconPath`]: inline up to
/// [`INLINE_PATH`] entries, so a forward costs no heap allocation, and a
/// shared `Arc<[Pid]>` above that. A broadcast stores its message once
/// whatever the form. The inline array makes the message 72 bytes.
/// [`MessageSize::size_bits`] charges every path entry to every copy
/// sent — it models the wire size, not the in-memory layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CongestMsg {
    /// A beacon flood. The path field lists every node the beacon has
    /// visited, origin first and most recent forwarder last; receivers
    /// verify that the last entry equals the authenticated sender and
    /// forwarders append themselves before re-broadcasting. A Byzantine
    /// node can fabricate any prefix, but cannot fake the final entry
    /// (channel authenticity) — which is exactly what the blacklisting
    /// rule exploits.
    Beacon {
        /// Visited-node chain: `path[0]` is the claimed origin, the last
        /// entry is the (verifiable) sender.
        path: BeaconPath,
    },
    /// A liveness signal flooded by undecided nodes during each
    /// iteration's continue window. Carries no payload.
    Continue,
}

impl CongestMsg {
    /// The claimed origin of a beacon (`None` for continues or corrupt
    /// empty paths).
    pub fn origin(&self) -> Option<Pid> {
        match self {
            CongestMsg::Beacon { path } => path.origin(),
            CongestMsg::Continue => None,
        }
    }
}

impl MessageSize for CongestMsg {
    #[inline]
    fn size_bits(&self, id_bits: u32) -> u64 {
        match self {
            // 2-bit tag plus the path IDs.
            CongestMsg::Beacon { path } => 2 + path.len() as u64 * u64::from(id_bits),
            CongestMsg::Continue => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pids(len: usize) -> Vec<Pid> {
        (1..=len as u64).map(Pid).collect()
    }

    fn beacon(path: BeaconPath) -> CongestMsg {
        CongestMsg::Beacon { path }
    }

    /// `entries` (at most [`INLINE_PATH`]) stored inline.
    fn inline(entries: &[Pid]) -> BeaconPath {
        let mut ids = [Pid(0); INLINE_PATH];
        ids[..entries.len()].copy_from_slice(entries);
        BeaconPath(Repr::Inline {
            len: entries.len() as u8,
            ids,
        })
    }

    /// `entries` stored shared, whatever their length.
    fn shared(entries: &[Pid]) -> BeaconPath {
        BeaconPath(Repr::Shared(Arc::from(entries)))
    }

    #[test]
    fn sizes_reflect_path_length() {
        let b = beacon([Pid(1), Pid(2), Pid(3)].into_iter().collect());
        assert_eq!(b.size_bits(64), 2 + 3 * 64);
        assert_eq!(CongestMsg::Continue.size_bits(64), 2);
    }

    #[test]
    fn origin_is_first_path_entry() {
        let b = beacon([Pid(9), Pid(2)].into_iter().collect());
        assert_eq!(b.origin(), Some(Pid(9)));
        assert_eq!(CongestMsg::Continue.origin(), None);
        assert_eq!(beacon(iter::empty().collect()).origin(), None);
    }

    #[test]
    fn the_message_holds_the_inline_array() {
        assert_eq!(std::mem::size_of::<CongestMsg>(), 72);
        assert_eq!(
            std::mem::size_of::<CongestMsg>(),
            std::mem::size_of::<BeaconPath>()
        );
    }

    #[test]
    fn extended_switches_form_past_the_inline_capacity() {
        for len in [0, 1, INLINE_PATH - 1, INLINE_PATH, INLINE_PATH + 1] {
            let path = pids(len);
            let ext = BeaconPath::extended(&path, Pid(100));
            let mut want = path.clone();
            want.push(Pid(100));
            assert_eq!(&*ext, &want[..], "extended from {len} entries");
            assert_eq!(ext.len(), len + 1);
            assert_eq!(ext.is_inline(), len < INLINE_PATH, "from {len} entries");
            assert_eq!(ext.last(), Some(&Pid(100)));
            assert_eq!(beacon(ext).size_bits(64), 2 + (len as u64 + 1) * 64);
        }
    }

    #[test]
    fn collecting_picks_the_form_by_length() {
        for len in [0, 1, INLINE_PATH - 1, INLINE_PATH, INLINE_PATH + 1, 20] {
            let path: BeaconPath = pids(len).into_iter().collect();
            assert_eq!(&*path, &pids(len)[..]);
            assert_eq!(path.is_inline(), len <= INLINE_PATH, "{len} entries");
        }
    }

    #[test]
    fn empty_path_is_inline_and_has_no_origin() {
        let empty: BeaconPath = iter::empty().collect();
        assert!(empty.is_empty() && empty.is_inline());
        assert_eq!(empty.origin(), None);
        assert_eq!(beacon(empty.clone()).size_bits(64), 2);
        assert_eq!(format!("{empty:?}"), "[]");
    }

    #[test]
    fn both_forms_agree_on_the_same_entries() {
        for len in [0, 1, INLINE_PATH] {
            let entries = pids(len);
            let inline = inline(&entries);
            let shared = shared(&entries);
            assert!(inline.is_inline() && !shared.is_inline());
            assert_eq!(inline, shared);
            assert_eq!(inline.origin(), shared.origin());
            assert_eq!(format!("{inline:?}"), format!("{shared:?}"));
            assert_eq!(beacon(inline).size_bits(64), beacon(shared).size_bits(64));
        }
        // Padding past the length is not part of the path.
        let mut ids = [Pid(7); INLINE_PATH];
        ids[0] = Pid(1);
        let padded = BeaconPath(Repr::Inline { len: 1, ids });
        assert_eq!(padded, BeaconPath::extended(&[], Pid(1)));
        assert_ne!(padded, BeaconPath::extended(&[Pid(1)], Pid(7)));
    }
}
