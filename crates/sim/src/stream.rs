//! Run-length-encoded memory-reference streams.
//!
//! The interactive workloads, the IPC buffer and the covert-channel library
//! all issue long arithmetic sweeps: `base, base + stride, base + 2·stride,
//! ...` with one read/write polarity. Materialising those as `Vec<MemRef>`
//! (16 bytes per reference) made the reference stream the largest allocation
//! of every interaction *and* forced the machine to re-derive per-reference
//! facts (page, home slice, route) it could have computed once per run.
//!
//! A [`RefStream`] stores the same stream as a sequence of [`RefRun`]s — one
//! `(base, stride, len, write)` descriptor per arithmetic run, with
//! irregular references degenerating to single-element runs — and is built
//! incrementally by [`RefStream::push`], which greedily extends the trailing
//! run. The encoding is exact: iterating a stream yields precisely the
//! references that were pushed, in order.
//!
//! [`Machine::access_stream`](crate::machine::Machine::access_stream) is the
//! batched counterpart that exploits the run structure; it is byte-identical
//! in all observable effects to issuing the decoded references one
//! [`Machine::access`](crate::machine::Machine::access) at a time (enforced
//! by `tests/hot_path_equivalence.rs`).

/// One memory reference: a virtual address within the issuing process's
/// address space plus a read/write flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Virtual address.
    pub vaddr: u64,
    /// `true` for a store, `false` for a load.
    pub write: bool,
}

impl MemRef {
    /// A load from `vaddr`.
    pub fn read(vaddr: u64) -> Self {
        MemRef { vaddr, write: false }
    }

    /// A store to `vaddr`.
    pub fn write(vaddr: u64) -> Self {
        MemRef { vaddr, write: true }
    }
}

/// A run of `len` memory references at `base, base + stride, base +
/// 2·stride, ...`, all loads or all stores.
///
/// `stride` is interpreted with two's-complement wrapping arithmetic, so a
/// "negative" stride (e.g. `0u64.wrapping_sub(64)`) walks downwards. An
/// irregular reference is simply a run of `len == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefRun {
    /// Virtual address of the first reference.
    pub base: u64,
    /// Address delta between consecutive references (wrapping).
    pub stride: u64,
    /// Number of references in the run (≥ 1 in well-formed streams).
    pub len: u32,
    /// `true` for stores, `false` for loads.
    pub write: bool,
}

impl RefRun {
    /// A run of `len` references starting at `base` with the given stride.
    pub fn new(base: u64, stride: u64, len: u32, write: bool) -> Self {
        RefRun { base, stride, len, write }
    }

    /// The run holding exactly one reference.
    pub fn single(r: MemRef) -> Self {
        RefRun { base: r.vaddr, stride: 0, len: 1, write: r.write }
    }

    /// Address of the `i`-th reference of the run.
    #[inline]
    pub fn addr(&self, i: u32) -> u64 {
        self.base.wrapping_add(self.stride.wrapping_mul(i as u64))
    }

    /// The sub-run starting at reference `skip` (empty if `skip >= len`).
    pub fn tail(&self, skip: u32) -> RefRun {
        let skip = skip.min(self.len);
        RefRun {
            base: self.addr(skip),
            stride: self.stride,
            len: self.len - skip,
            write: self.write,
        }
    }

    /// The sub-run holding the first `n` references.
    pub fn take(&self, n: u32) -> RefRun {
        RefRun { len: n.min(self.len), ..*self }
    }

    /// The decoded references of the run, in order.
    pub fn iter(&self) -> impl Iterator<Item = MemRef> + '_ {
        (0..self.len).map(|i| MemRef { vaddr: self.addr(i), write: self.write })
    }

    /// Splits the run into maximal sub-runs that each stay inside one
    /// `granule_bytes`-sized, `granule_bytes`-aligned window (pages for the
    /// TLB/translation batch, cache lines for same-line collapsing).
    ///
    /// Addresses are assumed not to wrap around the top of the address space
    /// within one run (no workload allocates at `u64::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if `granule_bytes` is zero.
    pub fn segments(&self, granule_bytes: u64) -> impl Iterator<Item = RefRun> {
        assert!(granule_bytes > 0, "segmentation granule must be non-zero");
        let mut rest = *self;
        std::iter::from_fn(move || {
            if rest.len == 0 {
                return None;
            }
            let s = rest.stride as i64;
            let k = if s == 0 {
                rest.len
            } else if s.unsigned_abs() >= granule_bytes {
                // Every reference lands in a window of its own.
                1
            } else {
                // Bytes of headroom from `base` to the window edge in the
                // direction of travel, then how many strides fit in it.
                let room = if s > 0 {
                    granule_bytes - 1 - (rest.base % granule_bytes)
                } else {
                    rest.base % granule_bytes
                };
                let fit = room / s.unsigned_abs() + 1;
                fit.min(rest.len as u64) as u32
            };
            let seg = rest.take(k);
            rest = rest.tail(k);
            Some(seg)
        })
    }
}

/// A run-length-encoded stream of memory references.
///
/// Built by [`RefStream::push`]ing references in issue order; the builder
/// greedily extends the trailing run when the next reference continues its
/// arithmetic progression with the same polarity, and otherwise starts a new
/// run. Exact: [`RefStream::iter`] decodes back to precisely the pushed
/// sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefStream {
    runs: Vec<RefRun>,
    /// Total decoded references across all runs.
    total: u64,
}

impl RefStream {
    /// An empty stream.
    pub fn new() -> Self {
        RefStream::default()
    }

    /// Encodes an already-materialised reference sequence.
    pub fn from_refs(refs: impl IntoIterator<Item = MemRef>) -> Self {
        let mut s = RefStream::new();
        for r in refs {
            s.push(r);
        }
        s
    }

    /// Appends one reference, extending the trailing run when it continues
    /// the run's arithmetic progression with the same read/write polarity.
    pub fn push(&mut self, r: MemRef) {
        self.total += 1;
        if let Some(last) = self.runs.last_mut() {
            if last.write == r.write && last.len < u32::MAX {
                if last.len == 1 {
                    last.stride = r.vaddr.wrapping_sub(last.base);
                    last.len = 2;
                    return;
                }
                if r.vaddr == last.base.wrapping_add(last.stride.wrapping_mul(last.len as u64)) {
                    last.len += 1;
                    return;
                }
            }
        }
        self.runs.push(RefRun::single(r));
    }

    /// Appends a whole run (merging into the trailing run when it is the
    /// exact continuation of it).
    pub fn push_run(&mut self, run: RefRun) {
        if run.len == 0 {
            return;
        }
        self.total += run.len as u64;
        if let Some(last) = self.runs.last_mut() {
            if last.write == run.write
                && last.stride == run.stride
                && last.len > 1
                && run.base == last.base.wrapping_add(last.stride.wrapping_mul(last.len as u64))
                && (last.len as u64 + run.len as u64) <= u32::MAX as u64
            {
                last.len += run.len;
                return;
            }
        }
        self.runs.push(run);
    }

    /// Total number of decoded references.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Whether the stream holds no references.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The encoded runs, in issue order.
    pub fn runs(&self) -> &[RefRun] {
        &self.runs
    }

    /// Decodes the stream back to individual references, in issue order.
    pub fn iter(&self) -> impl Iterator<Item = MemRef> + '_ {
        self.runs.iter().flat_map(|r| r.iter())
    }

    /// Drops all references, keeping the run allocation.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.total = 0;
    }

    /// Splits the stream into `lanes` consecutive chunks of `⌈len / lanes⌉`
    /// references each (the last may be shorter, and trailing lanes empty),
    /// in one pass over the runs. Yields `(lane, piece)` in stream order:
    /// lane `k`'s pieces decode to references `[k·chunk, min((k+1)·chunk,
    /// len))`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn lanes(&self, lanes: usize) -> impl Iterator<Item = (usize, RefRun)> + '_ {
        assert!(lanes > 0, "a stream splits into at least one lane");
        let chunk = self.total.div_ceil(lanes as u64);
        let mut runs = self.runs.iter();
        let mut rest = RefRun::new(0, 0, 0, false);
        let mut lane = 0;
        let mut room = chunk;
        std::iter::from_fn(move || {
            while rest.len == 0 {
                rest = *runs.next()?;
            }
            let take = room.min(rest.len as u64) as u32;
            let piece = (lane, rest.take(take));
            rest = rest.tail(take);
            room -= take as u64;
            if room == 0 {
                lane += 1;
                room = chunk;
            }
            Some(piece)
        })
    }
}

impl FromIterator<MemRef> for RefStream {
    fn from_iter<T: IntoIterator<Item = MemRef>>(iter: T) -> Self {
        RefStream::from_refs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memref_constructors() {
        assert!(!MemRef::read(0x10).write);
        assert!(MemRef::write(0x10).write);
        assert_eq!(MemRef::read(0x10).vaddr, 0x10);
    }

    #[test]
    fn push_encodes_arithmetic_sweeps_compactly() {
        let mut s = RefStream::new();
        for i in 0..100u64 {
            s.push(MemRef::read(0x1000 + i * 64));
        }
        assert_eq!(s.runs().len(), 1);
        assert_eq!(s.runs()[0], RefRun::new(0x1000, 64, 100, false));
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn roundtrip_is_exact_for_irregular_streams() {
        let refs: Vec<MemRef> =
            [0x40u64, 0x80, 0xc0, 0x1000, 0x40, 0x38, 0x30, 0x28, 0x5000, 0x5000, 0x5000]
                .iter()
                .enumerate()
                .map(|(i, a)| MemRef { vaddr: *a, write: i % 3 == 0 })
                .collect();
        let s = RefStream::from_refs(refs.clone());
        assert_eq!(s.iter().collect::<Vec<_>>(), refs);
        assert_eq!(s.len(), refs.len());
        assert!(s.runs().len() < refs.len(), "descending/repeat sweeps must compress");
    }

    #[test]
    fn polarity_change_breaks_runs() {
        let mut s = RefStream::new();
        s.push(MemRef::read(0));
        s.push(MemRef::read(64));
        s.push(MemRef::write(128));
        assert_eq!(s.runs().len(), 2);
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn push_run_merges_continuations() {
        let mut s = RefStream::new();
        s.push_run(RefRun::new(0, 64, 4, false));
        s.push_run(RefRun::new(256, 64, 4, false));
        assert_eq!(s.runs().len(), 1);
        assert_eq!(s.runs()[0].len, 8);
        s.push_run(RefRun::new(0x9000, 64, 2, false));
        assert_eq!(s.runs().len(), 2);
        assert_eq!(s.len(), 10);
        s.push_run(RefRun::new(0, 0, 0, false));
        assert_eq!(s.len(), 10, "empty runs are ignored");
    }

    #[test]
    fn segments_split_at_page_boundaries() {
        // 64-byte stride crossing a 4 KB boundary at 0x1000.
        let run = RefRun::new(0xf80, 64, 6, false);
        let segs: Vec<RefRun> = run.segments(4096).collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], RefRun::new(0xf80, 64, 2, false));
        assert_eq!(segs[1], RefRun::new(0x1000, 64, 4, false));
        // Decoded contents are preserved.
        let decoded: Vec<MemRef> = segs.iter().flat_map(|s| s.iter()).collect();
        assert_eq!(decoded, run.iter().collect::<Vec<_>>());
    }

    #[test]
    fn segments_handle_stride_zero_and_negative() {
        let run = RefRun::new(0x2010, 0, 50, true);
        assert_eq!(run.segments(4096).collect::<Vec<_>>(), vec![run]);

        let down = RefRun::new(0x1040, 0u64.wrapping_sub(64), 4, false);
        let segs: Vec<RefRun> = down.segments(4096).collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].len, 2, "0x1040, 0x1000 stay in page 1");
        assert_eq!(segs[1].base, 0xfc0);
        assert_eq!(segs[1].len, 2, "0xfc0, 0xf80 fall into page 0");
    }

    #[test]
    fn segments_with_stride_larger_than_granule() {
        let run = RefRun::new(0x0, 4096 * 3, 4, false);
        let segs: Vec<RefRun> = run.segments(4096).collect();
        assert_eq!(segs.len(), 4);
        assert!(segs.iter().all(|s| s.len == 1));
    }

    #[test]
    fn lanes_slice_by_reference_index() {
        let mut s = RefStream::new();
        for i in 0..10u64 {
            s.push(MemRef::read(i * 64));
        }
        s.push(MemRef::write(0x9000));
        for i in 0..5u64 {
            s.push(MemRef::read(0x10_000 + i * 128));
        }
        let all: Vec<MemRef> = s.iter().collect();
        for lanes in [1usize, 2, 3, 5, 16, 40] {
            let chunk = all.len().div_ceil(lanes);
            let mut decoded = vec![Vec::new(); lanes];
            for (lane, piece) in s.lanes(lanes) {
                assert!(piece.len > 0, "{lanes} lanes: empty piece");
                decoded[lane].extend(piece.iter());
            }
            for (k, got) in decoded.iter().enumerate() {
                let lo = (k * chunk).min(all.len());
                let hi = ((k + 1) * chunk).min(all.len());
                assert_eq!(got[..], all[lo..hi], "{lanes} lanes, lane {k}");
            }
        }
        assert_eq!(RefStream::new().lanes(4).count(), 0);
    }

    #[test]
    fn single_ref_runs_have_stride_zero() {
        let s = RefStream::from_refs([MemRef::read(0x40)]);
        assert_eq!(s.runs(), &[RefRun::new(0x40, 0, 1, false)]);
    }
}
