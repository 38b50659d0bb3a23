//! Channel trace recording and replay.
//!
//! The paper's 12×12 results are *trace-driven*: channels were measured
//! over the air once, stored, and replayed through every detector so that
//! all schemes see identical conditions. This module provides the same
//! workflow with a simple line-oriented text format:
//!
//! ```text
//! flexcore-trace v1 <nr> <nt> <count>
//! # one channel per block, row-major, one "re im" pair per line
//! <re> <im>
//! ...
//! ```
//!
//! Floats are written with 17 significant digits, so replay is bit-exact.

use flexcore_numeric::{CMat, Cx};
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// An in-memory set of recorded channels, all of the same dimensions.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSet {
    nr: usize,
    nt: usize,
    channels: Vec<CMat>,
}

impl TraceSet {
    /// Creates a trace set from channels of identical dimensions.
    ///
    /// # Panics
    /// Panics if the channels do not all share the same shape, if the set
    /// is empty, or if an entry is not finite (the format cannot replay it).
    pub fn new(channels: Vec<CMat>) -> Self {
        assert!(!channels.is_empty(), "TraceSet: empty");
        let (nr, nt) = (channels[0].rows(), channels[0].cols());
        for c in &channels {
            assert_eq!((c.rows(), c.cols()), (nr, nt), "TraceSet: mixed shapes");
            let finite = |z: &Cx| z.re.is_finite() && z.im.is_finite();
            assert!(
                (0..nr).flat_map(|r| c.row(r)).all(finite),
                "TraceSet: non-finite entry"
            );
        }
        TraceSet { nr, nt, channels }
    }

    /// Number of recorded channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True if the set holds no channels (cannot happen via `new`).
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Borrow of the recorded channels.
    pub fn channels(&self) -> &[CMat] {
        &self.channels
    }
}

/// Serialises a trace set to a writer in the `flexcore-trace v1` format.
pub fn write_traces<W: Write>(w: &mut W, set: &TraceSet) -> io::Result<()> {
    writeln!(
        w,
        "flexcore-trace v1 {} {} {}",
        set.nr,
        set.nt,
        set.channels.len()
    )?;
    let mut buf = String::new();
    for ch in &set.channels {
        for r in 0..set.nr {
            for c in 0..set.nt {
                let z = ch[(r, c)];
                buf.clear();
                // 17 significant digits round-trips f64 exactly.
                let _ = writeln!(buf, "{:.17e} {:.17e}", z.re, z.im); // write to String is infallible
                w.write_all(buf.as_bytes())?;
            }
        }
    }
    Ok(())
}

/// Parses a trace set from a reader.
///
/// Returns an [`io::ErrorKind::InvalidData`] error describing the first
/// malformed line, if any: a bad header, dimensions whose product
/// overflows, a body shorter than the header promises, or an entry that is
/// not a finite number. The header sizes nothing up front, so memory grows
/// only with the lines the file delivers.
pub fn read_traces<R: BufRead>(r: &mut R) -> io::Result<TraceSet> {
    let mut lines = r.lines();
    let header = lines.next().ok_or_else(|| bad("empty trace file"))??;
    let parts: Vec<&str> = header.split_whitespace().collect();
    if parts.len() != 5 || parts[0] != "flexcore-trace" || parts[1] != "v1" {
        return Err(bad(&format!("bad header: {header:?}")));
    }
    let nr: usize = parts[2].parse().map_err(|_| bad("bad nr"))?;
    let nt: usize = parts[3].parse().map_err(|_| bad("bad nt"))?;
    let count: usize = parts[4].parse().map_err(|_| bad("bad count"))?;
    if nr == 0 || nt == 0 || count == 0 {
        return Err(bad("zero dimension in header"));
    }
    let per_channel = nr
        .checked_mul(nt)
        .ok_or_else(|| bad(&format!("{nr} × {nt} entries per channel overflow")))?;
    let (mut channels, mut entries) = (Vec::new(), Vec::new());
    for ci in 0..count {
        entries.clear();
        for _ in 0..per_channel {
            let line = loop {
                let l = lines
                    .next()
                    .ok_or_else(|| bad(&format!("truncated trace (channel {ci})")))??;
                let t = l.trim();
                if !t.is_empty() && !t.starts_with('#') {
                    break t.to_string();
                }
            };
            let mut it = line.split_whitespace();
            let mut part = || {
                it.next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| bad(&format!("bad entry: {line:?}")))
            };
            let re = part()?;
            let im = part()?;
            entries.push(Cx::new(re, im));
        }
        channels.push(CMat::from_fn(nr, nt, |r, c| entries[r * nt + c]));
    }
    Ok(TraceSet::new(channels))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("flexcore-trace: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ChannelEnsemble;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_set(n: usize) -> TraceSet {
        let mut rng = StdRng::seed_from_u64(42);
        TraceSet::new(ChannelEnsemble::iid(4, 3).draw_many(&mut rng, n))
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let set = sample_set(5);
        let mut buf = Vec::new();
        write_traces(&mut buf, &set).unwrap();
        let back = read_traces(&mut &buf[..]).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn header_carries_dimensions() {
        let set = sample_set(2);
        let mut buf = Vec::new();
        write_traces(&mut buf, &set).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("flexcore-trace v1 4 3 2\n"));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let set = sample_set(1);
        let mut buf = Vec::new();
        write_traces(&mut buf, &set).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // Inject noise after the header line.
        let pos = text.find('\n').unwrap() + 1;
        text.insert_str(pos, "# a comment\n\n");
        let back = read_traces(&mut text.as_bytes()).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn rejects_bad_header() {
        let text = "not-a-trace v9 4 4 1\n";
        assert!(read_traces(&mut text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_truncated_body() {
        let set = sample_set(2);
        let mut buf = Vec::new();
        write_traces(&mut buf, &set).unwrap();
        let cut = buf.len() / 2;
        assert!(read_traces(&mut &buf[..cut]).is_err());
    }

    /// The error a malformed trace text reads as, which must be
    /// `InvalidData` rather than a panic or an abort.
    fn invalid(text: &str) -> String {
        let err = read_traces(&mut text.as_bytes()).expect_err("malformed trace accepted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err.to_string()
    }

    #[test]
    fn count_that_overflows_a_capacity_reads_as_truncated() {
        let err = invalid("flexcore-trace v1 1 1 18446744073709551615\n0 0\n");
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn huge_count_over_a_short_body_reads_as_truncated() {
        let err = invalid("flexcore-trace v1 4 4 1152921504606846976\n1 0\n");
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn dimensions_whose_product_overflows_are_rejected() {
        let err = invalid("flexcore-trace v1 4294967296 4294967296 1\n0 0\n");
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn non_finite_entries_are_rejected() {
        for entry in ["NaN 0", "inf 1", "0 -inf", "1 nan"] {
            let err = invalid(&format!("flexcore-trace v1 1 1 1\n{entry}\n"));
            assert!(err.contains("bad entry"), "{entry}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "mixed shapes")]
    fn rejects_mixed_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = ChannelEnsemble::iid(4, 3).draw(&mut rng);
        let b = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let _ = TraceSet::new(vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "non-finite entry")]
    fn rejects_non_finite_entries() {
        let mut h = ChannelEnsemble::iid(2, 2).draw(&mut StdRng::seed_from_u64(1));
        h[(1, 0)] = Cx::new(0.0, f64::NAN);
        let _ = TraceSet::new(vec![h]);
    }
}
