//! End-to-end coded uplink simulation.
//!
//! One "packet exchange" follows the paper's §5.1 methodology: `Nt` users
//! each encode an independent payload with the 802.11 rate-1/2
//! convolutional code, interleave it, map it onto QAM symbols across the
//! 48 data subcarriers of consecutive OFDM symbols, and transmit
//! simultaneously. The AP detects every subcarrier of every OFDM symbol
//! with the configured detector, then each user's stream is deinterleaved,
//! Viterbi-decoded and compared to the sent payload.
//!
//! Channels are block fading: one `H` per packet (the paper's channels are
//! static over a packet, §5). Payload length is configurable; the paper's
//! 500-kByte packets only rescale PER at fixed BER, so the harness default
//! (see `flexcore-sim`) uses shorter packets and documents the scaling at
//! `flexcore_sim::calibrate::operating_point_snr_db`.
//!
//! [`simulate_packet`] (and `simulate_packet_soft` beside it) detect one
//! vector at a time and are the references the identity tests compare
//! against. The engine-backed path is **one** cell tick over
//! [`StreamingCell`] users, generic over what crosses from detector to
//! decoder (hard decisions here, LLRs in [`crate::soft_link`]): on frozen
//! [`ChannelStream`](flexcore_engine::ChannelStream)s it reproduces the
//! references bit for bit.

use crate::ofdm::OfdmConfig;
use flexcore_channel::MimoChannel;
use flexcore_coding::{crc_check, CodeRate, ConvCode, Interleaver, ViterbiScratch};
use flexcore_detect::common::Detector;
use flexcore_engine::StreamingCell;
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::Cx;
use flexcore_parallel::PePool;
use rand::Rng;
use std::cell::Cell;
use std::thread::LocalKey;

/// Link-level simulation parameters.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// OFDM numerology.
    pub ofdm: OfdmConfig,
    /// Modulation shared by all users.
    pub constellation: Constellation,
    /// Convolutional code rate (the paper uses 1/2 throughout).
    pub rate: CodeRate,
    /// Per-user payload in bytes.
    pub payload_bytes: usize,
}

impl LinkConfig {
    /// The paper's configuration at a test-friendly payload size.
    pub fn paper_default(constellation: Constellation, payload_bytes: usize) -> Self {
        LinkConfig {
            ofdm: OfdmConfig::wifi20(),
            constellation,
            rate: CodeRate::Half,
            payload_bytes,
        }
    }

    /// Coded bits per user per OFDM symbol.
    pub fn bits_per_ofdm_symbol(&self) -> usize {
        self.ofdm.n_data * self.constellation.bits_per_symbol()
    }

    /// Number of OFDM symbols needed to carry one packet.
    pub fn ofdm_symbols_per_packet(&self) -> usize {
        let code = ConvCode::new(self.rate);
        let coded = code.coded_len(self.payload_bytes * 8);
        coded.div_ceil(self.bits_per_ofdm_symbol())
    }
}

/// Result of one simulated packet exchange.
#[derive(Clone, Debug)]
pub struct LinkOutcome {
    /// Per-user packet success flags.
    pub user_ok: Vec<bool>,
    /// Per-user uncoded (pre-Viterbi) bit error counts.
    pub raw_bit_errors: Vec<usize>,
}

/// Result of one packet exchange over a *streaming* channel: the usual
/// [`LinkOutcome`] plus the MAC-observable CRC-32 delivery check behind
/// goodput accounting.
#[derive(Clone, Debug)]
pub struct StreamedOutcome {
    /// The cell user (user-group) this packet belongs to.
    pub user: usize,
    /// The link-layer outcome, in the same terms as the per-vector
    /// references' [`LinkOutcome`].
    pub link: LinkOutcome,
    /// Per-stream CRC-32 frame check of the decoded payload against the
    /// transmitted one ([`flexcore_coding::crc_check`]) — what a real MAC
    /// acks on. Agrees with `link.user_ok` except for the 2⁻³² collision
    /// case.
    pub crc_ok: Vec<bool>,
}

/// One packet's transmit-side product, every spatial stream's back to
/// back: the payload bits and the symbol index each grid cell carries.
pub(crate) struct TxChains {
    /// `nt × payload_bits` payload bits, stream-major.
    payloads: Vec<u8>,
    /// `nt × n_cells` transmitted symbol indices, stream-major.
    symbols: Vec<u8>,
    /// Grid cells per stream.
    n_cells: usize,
}

impl TxChains {
    /// Number of spatial streams.
    fn nt(&self) -> usize {
        self.symbols.len() / self.n_cells
    }

    /// Stream `u`'s payload bits.
    fn payload(&self, u: usize) -> &[u8] {
        let bits = self.payloads.len() / self.nt();
        &self.payloads[u * bits..(u + 1) * bits]
    }

    /// Stream `u`'s symbol index per grid cell.
    fn symbols(&self, u: usize) -> &[u8] {
        &self.symbols[u * self.n_cells..(u + 1) * self.n_cells]
    }

    /// Writes the transmitted MIMO vector of grid cell `v` (symbol-major)
    /// into `x`: stream `u`'s constellation point in slot `u`.
    pub(crate) fn tx_into(&self, c: &Constellation, v: usize, x: &mut [Cx]) {
        for (u, x) in x.iter_mut().enumerate() {
            *x = c.point(usize::from(self.symbols[u * self.n_cells + v]));
        }
    }

    /// [`TxChains::tx_into`] as an owned vector.
    pub(crate) fn tx_vector(&self, c: &Constellation, v: usize) -> Vec<Cx> {
        let mut x = vec![Cx::ZERO; self.nt()];
        self.tx_into(c, v, &mut x);
        x
    }
}

/// The coding side of a packet exchange for one [`LinkConfig`]: the code,
/// the interleaver's air-position → coded-position table, the
/// constellation's demap words and its bit-pattern → symbol map, and the
/// transmit and receive chains' reusable buffers (`T` is the decoder
/// input, a bit or an LLR). Each thread keeps one per input type
/// ([`Codec::with`]), so a serving loop builds its tables and grows its
/// buffers once, not once per tick.
pub(crate) struct Codec<T> {
    /// What the tables were built for.
    key: CodecKey,
    code: ConvCode,
    /// Bits per symbol.
    bps: usize,
    /// One OFDM symbol's [`Interleaver::coded_positions`]: air position
    /// `j` of a block carries that block's coded bit `air[j]`.
    air: Vec<u16>,
    /// `words[idx]` = symbol `idx`'s bits, one byte each, MSB first
    /// (byte `k` of the little-endian word is bit `k`).
    words: Vec<u64>,
    /// `index_of[pattern]` = the symbol whose bits, read MSB first, are
    /// `pattern`.
    index_of: Vec<u8>,
    /// One stream's coded bits, padded with zeros to whole OFDM symbols.
    coded: Vec<u8>,
    /// One stream's decoder inputs in coded order.
    inputs: Vec<T>,
    scratch: ViterbiScratch,
    decoded: Vec<u8>,
}

/// Everything of a [`LinkConfig`] a [`Codec`]'s tables depend on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CodecKey {
    n_data: usize,
    modulation: Modulation,
    rate: CodeRate,
    payload_bytes: usize,
}

fn codec_key(cfg: &LinkConfig) -> CodecKey {
    CodecKey {
        n_data: cfg.ofdm.n_data,
        modulation: cfg.constellation.modulation(),
        rate: cfg.rate,
        payload_bytes: cfg.payload_bytes,
    }
}

/// A decoder input with its per-thread [`Codec`] slot.
pub(crate) trait Input: Copy + Default + 'static {
    /// This thread's cached codec for this input type, if any.
    fn slot() -> &'static LocalKey<Cell<Option<Codec<Self>>>>;
}

impl Input for u8 {
    fn slot() -> &'static LocalKey<Cell<Option<Codec<u8>>>> {
        thread_local!(static SLOT: Cell<Option<Codec<u8>>> = const { Cell::new(None) });
        &SLOT
    }
}

impl<T: Input> Codec<T> {
    fn new(cfg: &LinkConfig) -> Self {
        let c = &cfg.constellation;
        let bps = c.bits_per_symbol();
        let mut bits = [0u8; 8];
        let words: Vec<u64> = (0..c.order())
            .map(|idx| {
                c.index_to_bits_into(idx, &mut bits[..bps]);
                u64::from_le_bytes(bits)
            })
            .collect();
        let mut index_of = vec![0u8; c.order()];
        for (idx, word) in words.iter().enumerate() {
            let pattern = word.to_le_bytes()[..bps]
                .iter()
                .fold(0, |acc, &b| acc << 1 | usize::from(b));
            index_of[pattern] = idx as u8;
        }
        Codec {
            key: codec_key(cfg),
            code: ConvCode::new(cfg.rate),
            bps,
            air: Interleaver::new(cfg.ofdm.n_data, bps)
                .coded_positions()
                .to_vec(),
            words,
            index_of,
            coded: Vec::new(),
            inputs: Vec::new(),
            scratch: ViterbiScratch::default(),
            decoded: Vec::new(),
        }
    }

    /// Runs `f` on this thread's codec for `cfg`, built on first use and
    /// kept, buffers grown, for the next call with the same configuration
    /// (a call for another one rebuilds it). A nested call finds the slot
    /// empty and builds its own.
    pub(crate) fn with<R>(cfg: &LinkConfig, f: impl FnOnce(&mut Codec<T>) -> R) -> R {
        let key = codec_key(cfg);
        let cached = T::slot().take().filter(|codec| codec.key == key);
        let mut codec = cached.unwrap_or_else(|| Codec::new(cfg));
        let out = f(&mut codec);
        T::slot().set(Some(codec));
        out
    }

    /// Appends the symbol index of every grid cell of `padded` — one
    /// stream's coded bits, whole OFDM symbols — to `symbols`, in one
    /// pass: each cell gathers its bits through the air table and maps the
    /// pattern to its symbol. The bits per symbol are a constant of each
    /// instantiation, so a cell's gather is unrolled.
    fn modulate(&self, padded: &[u8], symbols: &mut Vec<u8>) {
        match self.key.modulation {
            Modulation::Bpsk => self.modulate_cells::<1>(padded, symbols),
            Modulation::Qpsk => self.modulate_cells::<2>(padded, symbols),
            Modulation::Qam16 => self.modulate_cells::<4>(padded, symbols),
            Modulation::Qam64 => self.modulate_cells::<6>(padded, symbols),
            Modulation::Qam256 => self.modulate_cells::<8>(padded, symbols),
        }
    }

    /// [`Codec::modulate`] at `B` bits per symbol.
    fn modulate_cells<const B: usize>(&self, padded: &[u8], symbols: &mut Vec<u8>) {
        let (cells, _) = self.air.as_chunks::<B>();
        for block in padded.chunks_exact(self.air.len()) {
            symbols.extend(cells.iter().map(|cell| {
                // flexcore-lint: hot-path
                let pattern = cell
                    .iter()
                    .fold(0, |acc, &k| acc << 1 | usize::from(block[usize::from(k)]));
                self.index_of[pattern]
            }));
        }
    }

    /// Demaps stream `u` of `grid`, sent as `sent` symbol indices (whole
    /// OFDM symbols), into `self.inputs` in coded order — each cell's
    /// decoder inputs scattered straight to their coded positions through
    /// the air table — and returns the bits the hard decisions get wrong
    /// (XOR + popcount of the demap words).
    fn demap<G: Grid<Metric = T> + ?Sized>(
        &mut self,
        grid: &G,
        (nt, u): (usize, usize),
        sent: &[u8],
    ) -> usize {
        let n_cbps = self.air.len();
        let n_data = n_cbps / self.bps;
        self.inputs.resize(sent.len() * self.bps, T::default());
        let mut raw_bit_errors = 0;
        let blocks = sent
            .chunks_exact(n_data)
            .zip(self.inputs.chunks_exact_mut(n_cbps));
        for (b, (sent, inputs)) in blocks.enumerate() {
            for (c, (&sent, to)) in sent.iter().zip(self.air.chunks_exact(self.bps)).enumerate() {
                // flexcore-lint: hot-path
                let v = b * n_data + c;
                let word = self.words[grid.hard(nt, v, u)];
                raw_bit_errors += (word ^ self.words[usize::from(sent)]).count_ones() as usize;
                for (&k, value) in to.iter().zip(grid.inputs(v, u, word)) {
                    inputs[usize::from(k)] = value;
                }
            }
        }
        raw_bit_errors
    }

    /// Receive chain of stream `u` of `grid`, sent as `sent` symbol
    /// indices: [`Codec::demap`], then Viterbi-decodes the first
    /// `coded_len(payload_bits)` inputs (the rest is padding). Returns the
    /// raw bit errors and the decoded payload.
    fn receive<G: Grid<Metric = T> + ?Sized>(
        &mut self,
        grid: &G,
        stream: (usize, usize),
        sent: &[u8],
        payload_bits: usize,
    ) -> (usize, &[u8]) {
        let raw_bit_errors = self.demap(grid, stream, sent);
        let coded = &self.inputs[..self.code.coded_len(payload_bits)];
        G::DECODE(
            &self.code,
            coded,
            payload_bits,
            &mut self.scratch,
            &mut self.decoded,
        );
        (raw_bit_errors, &self.decoded)
    }
}

/// Per-user transmit chains: random payloads → convolutional encode → pad →
/// interleave and map, one symbol index per grid cell, per stream. Shared
/// by every packet path, which must consume the RNG in exactly the same
/// order to stay bit-identical. A payload's bits come 64 to a `next_u64`,
/// low bit first; the unused bits of a user's last word are dropped.
pub(crate) fn transmit_chains<T: Input, R: Rng + ?Sized>(
    cfg: &LinkConfig,
    codec: &mut Codec<T>,
    nt: usize,
    rng: &mut R,
) -> TxChains {
    let n_cells = cfg.ofdm_symbols_per_packet() * cfg.ofdm.n_data;
    let payload_bits = cfg.payload_bytes * 8;
    let mut payloads = Vec::with_capacity(nt * payload_bits);
    let mut symbols = Vec::with_capacity(nt * n_cells);
    for u in 0..nt {
        for start in (0..payload_bits).step_by(64) {
            let word = rng.next_u64();
            let n = (payload_bits - start).min(64);
            payloads.extend((0..n).map(|k| (word >> k) as u8 & 1));
        }
        let payload = &payloads[u * payload_bits..];
        codec.code.encode_into(payload, &mut codec.coded);
        // Pad the final OFDM symbol with zero bits.
        codec.coded.resize(n_cells * codec.bps, 0);
        codec.modulate(&codec.coded, &mut symbols);
    }
    TxChains {
        payloads,
        symbols,
        n_cells,
    }
}

/// One frame's detector outputs, symbol-major, as the receive chains read
/// them — the one seam between the hard uplink (decision rows → bits →
/// Viterbi) and the soft one (LLRs → soft Viterbi, `[SoftDecision]` in
/// [`crate::soft_link`]). Everything else about a packet exchange —
/// transmit chains, framing, scheduling, deinterleaving, raw-error and CRC
/// accounting — is shared.
pub(crate) trait Grid {
    /// One coded bit's decoder input.
    type Metric: Input;
    /// Viterbi-decodes one stream's deinterleaved inputs.
    const DECODE: DecodeInto<Self::Metric>;
    /// Stream `u`'s hard symbol decision at grid cell `v` of an
    /// `nt`-stream grid.
    fn hard(&self, nt: usize, v: usize, u: usize) -> usize;
    /// Stream `u`'s decoder inputs for cell `v`, MSB first, in the first
    /// `bits_per_symbol` entries; `word` is its hard decision's bit word
    /// (byte `k` = bit `k`).
    fn inputs(&self, v: usize, u: usize, word: u64) -> [Self::Metric; 8];
}

/// The shape [`ConvCode::decode_into`] and [`ConvCode::decode_soft_into`]
/// share: `(code, inputs, payload bits, scratch, decoded payload)`.
pub(crate) type DecodeInto<T> = fn(&ConvCode, &[T], usize, &mut ViterbiScratch, &mut Vec<u8>);

/// Hard decisions as one plane of `nt`-wide rows — a cell tick's plane
/// ([`StreamingCell::run_tick`]) or the per-vector reference's.
impl Grid for [u16] {
    type Metric = u8;
    const DECODE: DecodeInto<u8> = ConvCode::decode_into;
    fn hard(&self, nt: usize, v: usize, u: usize) -> usize {
        usize::from(self[v * nt + u])
    }
    fn inputs(&self, _v: usize, _u: usize, word: u64) -> [u8; 8] {
        word.to_le_bytes()
    }
}

/// How a cell tick's frames are detected on their way to the receive
/// chains: [`Hard`] here, `Soft` in [`crate::soft_link`].
pub(crate) trait LinkOutput<D> {
    /// One served user's share of a cell tick.
    type Rows: Grid + ?Sized;
    /// Detects every user's queued frame in one shared tick, handing each
    /// served user's outputs to `each`, in user order.
    fn tick<P: PePool>(cell: &mut StreamingCell<D>, pool: &P, each: impl FnMut(usize, &Self::Rows));
}

/// Hard-decision output: [`StreamingCell::plan_tick`] +
/// [`StreamingCell::run_tick`] ([`Detector::detect_batch_into`]) →
/// decision planes → bits → Viterbi.
pub(crate) struct Hard;

impl<D: Detector + Clone + Sync> LinkOutput<D> for Hard {
    type Rows = [u16];
    fn tick<P: PePool>(cell: &mut StreamingCell<D>, pool: &P, mut each: impl FnMut(usize, &[u16])) {
        let plan = cell.plan_tick(pool.n_pes());
        cell.run_tick(plan, pool)
            .for_each(|(user, rows)| each(user, rows));
    }
}

/// Receive chains over a symbol-major grid of detector outputs: per
/// stream, demap, count raw (hard-decision) bit errors against the
/// transmitted symbols, deinterleave → Viterbi → compare against the
/// payload, plus the MAC-style CRC delivery check on exactly what the
/// decoder produced (`crc_ok[u]` iff stream `u`'s decoded payload carries
/// the transmitted payload's CRC-32), stamped with the cell `user` the
/// packet belongs to.
pub(crate) fn receive_chains<G: Grid + ?Sized>(
    cfg: &LinkConfig,
    codec: &mut Codec<G::Metric>,
    user: usize,
    chains: &TxChains,
    grid: &G,
) -> StreamedOutcome {
    let nt = chains.nt();
    let payload_bits = cfg.payload_bytes * 8;
    let mut link = LinkOutcome {
        user_ok: Vec::with_capacity(nt),
        raw_bit_errors: Vec::with_capacity(nt),
    };
    let mut crc_ok = Vec::with_capacity(nt);
    for u in 0..nt {
        let payload = chains.payload(u);
        let (errors, decoded) = codec.receive(grid, (nt, u), chains.symbols(u), payload_bits);
        link.raw_bit_errors.push(errors);
        link.user_ok.push(decoded == payload);
        crc_ok.push(crc_check(payload, decoded));
    }
    StreamedOutcome { user, link, crc_ok }
}

/// Simulates one packet exchange over the given channel with the given
/// detector, one [`Detector::detect`] call per received vector. The
/// detector must already be `prepare`d for `channel.h`.
pub fn simulate_packet<R: Rng + ?Sized>(
    cfg: &LinkConfig,
    channel: &MimoChannel,
    detector: &dyn Detector,
    rng: &mut R,
) -> LinkOutcome {
    Codec::with(cfg, |codec| {
        let chains = transmit_chains(cfg, codec, channel.nt(), rng);
        // Transmit symbol-by-symbol, subcarrier-by-subcarrier, and detect.
        let mut cells: Vec<u16> = Vec::new();
        for v in 0..cfg.ofdm_symbols_per_packet() * cfg.ofdm.n_data {
            let tx = chains.tx_vector(&cfg.constellation, v);
            let decision = detector.detect(&channel.transmit(&tx, rng));
            cells.extend(decision.into_iter().map(|s| s as u16));
        }
        receive_chains(cfg, codec, 0, &chains, cells.as_slice()).link
    })
}

/// The one serving tick, generic over the output: every cell user ages
/// one frame interval and transmits one whole packet through its truth
/// channels ([`transmit_chains`] per user, each on its *own* RNG so a
/// user's traffic is independent of who else is scheduled); all users'
/// `(subcarrier × symbol)` grids are detected in **one** shared pool run
/// ([`LinkOutput::tick`]: [`StreamingCell::plan_tick`] +
/// [`StreamingCell::run_tick`] for hard decisions,
/// [`StreamingCell::process_tick`] at each user's own estimate's `σ²` for
/// soft ones); then per user: receive chains → CRC-32 delivery check.
///
/// Every precondition is checked for every user before any user is
/// touched, so a rejected tick leaves the cell as it found it.
pub(crate) fn run_cell_tick<O, R, D, P>(
    cfg: &LinkConfig,
    cell: &mut StreamingCell<D>,
    pool: &P,
    rngs: &mut [R],
) -> Vec<StreamedOutcome>
where
    O: LinkOutput<D>,
    R: Rng,
    D: Detector + Clone + Sync,
    P: PePool,
{
    assert_eq!(
        rngs.len(),
        cell.n_users(),
        "cell_packet_tick: one RNG per user"
    );
    let (n_sym, n_sc) = (cfg.ofdm_symbols_per_packet(), cfg.ofdm.n_data);
    for u in 0..cell.n_users() {
        assert_eq!(
            cell.stream(u).n_subcarriers(),
            n_sc,
            "cell_packet_tick: user {u} stream width != OFDM data subcarriers"
        );
        assert_eq!(
            cell.pending(u),
            0,
            "cell_packet_tick: user {u} already has a queued frame — the tick \
             decodes the oldest queued frame against this tick's transmit \
             chains, so the queue must be drained before serving"
        );
    }
    Codec::with(cfg, |codec| {
        let mut chains: Vec<TxChains> = Vec::with_capacity(cell.n_users());
        for (u, rng) in rngs.iter_mut().enumerate() {
            cell.advance_user(u, rng);
            let nt = cell.stream(u).truth(0).cols();
            let user_chains = transmit_chains(cfg, codec, nt, rng);
            let frame = cell.stream(u).transmit_frame_into(
                n_sym,
                |sym_idx, sc, x| user_chains.tx_into(&cfg.constellation, sym_idx * n_sc + sc, x),
                rng,
            );
            cell.submit(u, frame);
            chains.push(user_chains);
        }
        let mut outcomes = Vec::with_capacity(chains.len());
        O::tick(cell, pool, |user, rows| {
            outcomes.push(receive_chains(cfg, codec, user, &chains[user], rows));
        });
        outcomes
    })
}

/// One multi-user serving tick, hard detection: every cell user ages one
/// frame interval, transmits one whole packet through its truth channels
/// on its own RNG, and all users' grids are detected in **one** shared
/// pool run. Per user: deinterleave → Viterbi → CRC-32 delivery check.
///
/// Each user's detections — and therefore its [`StreamedOutcome`] — are
/// bit-identical to running that user alone in a single-user cell with the
/// same seeds, whatever the user mix. On a frozen
/// [`ChannelStream`](flexcore_engine::ChannelStream) (ageing draws no
/// randomness) a user's outcome equals [`simulate_packet`] on the same
/// `H` and RNG, bit for bit.
///
/// # Panics
/// Panics unless `rngs.len() == cell.n_users()`, every stream matches
/// `cfg.ofdm.n_data` subcarriers, and every user's queue is empty on
/// entry — the tick pops each user's *oldest* queued frame and decodes it
/// against *this* tick's transmit chains, so a pre-queued frame would be
/// silently paired with the wrong payloads. The checks run before any
/// user is aged or served, so a caught panic leaves the cell untouched.
pub fn cell_packet_tick<R, D, P>(
    cfg: &LinkConfig,
    cell: &mut StreamingCell<D>,
    pool: &P,
    rngs: &mut [R],
) -> Vec<StreamedOutcome>
where
    R: Rng,
    D: Detector + Clone + Sync,
    P: PePool,
{
    run_cell_tick::<Hard, _, _, _>(cfg, cell, pool, rngs)
}

/// Measures the mean packet error rate over `n_packets` packets with a
/// fresh channel draw (block fading) per packet, and the mean
/// [`Detector::effort`] of the packets' preparations: `(per, mean_effort)`.
///
/// `draw_channel` supplies each packet's channel (e.g. from an ensemble or
/// a recorded trace set) and `detector.prepare` is re-run per packet —
/// exactly the paper's per-channel pre-processing amortisation. A packet's
/// vectors are all transmitted first, in [`simulate_packet`]'s RNG order
/// (detection draws none), then detected in one
/// [`Detector::detect_batch_into`] call, so the outcome is
/// [`simulate_packet`]'s, bit for bit.
pub fn packet_error_rate<R: Rng + ?Sized>(
    cfg: &LinkConfig,
    detector: &mut dyn Detector,
    n_packets: usize,
    sigma2: f64,
    mut draw_channel: impl FnMut(&mut R) -> MimoChannel,
    rng: &mut R,
) -> (f64, f64) {
    let (mut fails, mut total, mut effort) = (0usize, 0usize, 0usize);
    let n_cells = cfg.ofdm_symbols_per_packet() * cfg.ofdm.n_data;
    // One packet's received vectors back to back, its decisions, one
    // transmit vector, and the vector slices' buffer (empty between
    // packets, so it borrows nothing across them).
    let (mut ys, mut plane, mut x) = (Vec::new(), Vec::new(), Vec::new());
    let mut spare: Vec<&'static [Cx]> = Vec::new();
    for _ in 0..n_packets {
        let ch = draw_channel(rng);
        detector.prepare(&ch.h, sigma2);
        effort += detector.effort();
        let (nr, nt) = (ch.h.rows(), ch.nt());
        ys.resize(n_cells * nr, Cx::ZERO);
        plane.resize(n_cells * nt, 0);
        x.resize(nt, Cx::ZERO);
        let out = Codec::with(cfg, |codec| {
            let chains = transmit_chains(cfg, codec, nt, rng);
            for (v, y) in ys.chunks_exact_mut(nr).enumerate() {
                chains.tx_into(&cfg.constellation, v, &mut x);
                ch.transmit_into(&x, rng, y);
            }
            let mut refs: Vec<&[Cx]> = std::mem::take(&mut spare);
            refs.extend(ys.chunks_exact(nr));
            detector.detect_batch_into(&refs, &mut plane);
            // Emptied, back to `'static` by a collect that keeps the buffer.
            refs.clear();
            spare = refs.into_iter().map(|_| &[][..]).collect();
            receive_chains(cfg, codec, 0, &chains, plane.as_slice()).link
        });
        fails += out.user_ok.iter().filter(|&&ok| !ok).count();
        total += out.user_ok.len();
    }
    (
        fails as f64 / total as f64,
        effort as f64 / n_packets as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble};
    use flexcore_detect::{MmseDetector, SphereDecoder};
    use flexcore_modulation::Modulation;
    use flexcore_numeric::CMat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn cfg16(payload: usize) -> LinkConfig {
        LinkConfig::paper_default(Constellation::new(Modulation::Qam16), payload)
    }

    #[test]
    fn demap_words_count_raw_errors_exactly() {
        // Every (sent, decided) symbol pair of every constellation: the
        // word's bytes are the symbol's bits, and XOR + popcount of two
        // words is the per-bit disagreement count.
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ] {
            let cfg = LinkConfig::paper_default(Constellation::new(m), 10);
            let c = &cfg.constellation;
            let codec = Codec::<u8>::new(&cfg);
            let bits: Vec<Vec<u8>> = (0..c.order()).map(|i| c.index_to_bits(i)).collect();
            for (a, bits_a) in bits.iter().enumerate() {
                let word = codec.words[a].to_le_bytes();
                assert_eq!(&word[..bits_a.len()], bits_a, "{m:?} {a}");
                assert!(word[bits_a.len()..].iter().all(|&b| b == 0));
                for (b, bits_b) in bits.iter().enumerate() {
                    let per_bit = bits_a.iter().zip(bits_b).filter(|(x, y)| x != y).count();
                    let packed = (codec.words[a] ^ codec.words[b]).count_ones() as usize;
                    assert_eq!(packed, per_bit, "{m:?} {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn one_pass_chains_equal_the_two_pass_interleaver_path() {
        // Transmit: the gather-and-map pass equals interleave_stream →
        // bits_to_index per cell, on whole blocks (unpadded) and on coded
        // streams zero-padded to whole blocks. Receive: the demap scatter
        // equals demapping in air order → deinterleave_stream, for hard
        // `u8` and soft `f64` inputs, and decoding its first `coded_len`
        // inputs equals decoding the two-pass stream's.
        use flexcore::SoftDecision;
        let mut rng = StdRng::seed_from_u64(0x1A7E);
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ] {
            let c = Constellation::new(m);
            let bps = c.bits_per_symbol();
            for payload_bytes in [1, 10, 37] {
                let cfg = LinkConfig::paper_default(c.clone(), payload_bytes);
                let il = Interleaver::new(cfg.ofdm.n_data, bps);
                let n_cbps = cfg.bits_per_ofdm_symbol();
                let what = format!("{m:?} {payload_bytes} B");
                let (mut hard, mut soft) = (Codec::<u8>::new(&cfg), Codec::<f64>::new(&cfg));
                for (blocks, short) in [(1, 0), (1, 5), (3, 0), (3, n_cbps - 1)] {
                    let n = blocks * n_cbps;
                    let mut coded: Vec<u8> = (0..n - short).map(|_| rng.gen_range(0..2)).collect();
                    coded.resize(n, 0);
                    let mut one_pass = Vec::new();
                    hard.modulate(&coded, &mut one_pass);
                    let two_pass: Vec<u8> = il
                        .interleave_stream(&coded)
                        .chunks_exact(bps)
                        .map(|bits| c.bits_to_index(bits) as u8)
                        .collect();
                    assert_eq!(one_pass, two_pass, "{what}, {blocks} blocks less {short}");
                }

                // Stream 1 of a 2-stream grid, one cell per row.
                let (nt, u) = (2, 1);
                let n_cells = cfg.ofdm_symbols_per_packet() * cfg.ofdm.n_data;
                let order = c.order();
                let sent: Vec<u8> = (0..n_cells)
                    .map(|_| rng.gen_range(0..order) as u8)
                    .collect();
                let plane: Vec<u16> = (0..n_cells * nt)
                    .map(|_| rng.gen_range(0..order) as u16)
                    .collect();
                let cells: Vec<SoftDecision> = (0..n_cells)
                    .map(|v| SoftDecision {
                        llrs: (0..nt)
                            .map(|_| (0..bps).map(|_| rng.gen_range(-9.0..9.0)).collect())
                            .collect(),
                        hard: (0..nt).map(|s| usize::from(plane[v * nt + s])).collect(),
                    })
                    .collect();
                let decided = |v: usize| c.index_to_bits(usize::from(plane[v * nt + u]));
                let air_bits: Vec<u8> = (0..n_cells).flat_map(decided).collect();
                let air_llrs: Vec<f64> = cells.iter().flat_map(|d| d.llrs[u].clone()).collect();
                let raw: usize = (0..n_cells)
                    .map(|v| {
                        let sent = c.index_to_bits(usize::from(sent[v]));
                        sent.iter()
                            .zip(decided(v))
                            .filter(|(a, b)| **a != *b)
                            .count()
                    })
                    .sum();
                assert_eq!(hard.demap(plane.as_slice(), (nt, u), &sent), raw, "{what}");
                assert_eq!(hard.inputs, il.deinterleave_stream(&air_bits), "{what}");
                assert_eq!(soft.demap(&cells, (nt, u), &sent), raw, "{what}");
                assert_eq!(soft.inputs, il.deinterleave_stream(&air_llrs), "{what}");

                let payload_bits = payload_bytes * 8;
                let n = hard.code.coded_len(payload_bits);
                let want = hard
                    .code
                    .decode(&il.deinterleave_stream(&air_bits)[..n], payload_bits);
                let (_, decoded) = hard.receive(plane.as_slice(), (nt, u), &sent, payload_bits);
                assert_eq!(decoded, want, "hard, {what}");
                let mut want = Vec::new();
                let llrs = &il.deinterleave_stream(&air_llrs)[..n];
                let mut scratch = ViterbiScratch::default();
                soft.code
                    .decode_soft_into(llrs, payload_bits, &mut scratch, &mut want);
                let (_, decoded) = soft.receive(&cells, (nt, u), &sent, payload_bits);
                assert_eq!(decoded, want, "soft, {what}");
            }
        }
    }

    #[test]
    fn the_codec_is_built_once_per_thread_and_configuration() {
        // Two calls with one configuration share the codec (its grown
        // buffers included); another configuration rebuilds it, and a
        // nested call builds its own.
        let (a, b) = (cfg16(30), cfg16(31));
        let buffer = |cfg| {
            Codec::<u8>::with(cfg, |codec| {
                codec.coded.resize(1, 0);
                codec.coded.as_ptr()
            })
        };
        let first = buffer(&a);
        assert_eq!(buffer(&a), first);
        Codec::<u8>::with(&a, |outer| {
            assert_eq!(outer.coded.as_ptr(), first);
            assert_ne!(buffer(&a), first, "a nested call shared the codec");
        });
        assert_eq!(buffer(&a), first);
        let other = Codec::<u8>::with(&b, |codec| codec.key);
        assert_eq!(other, codec_key(&b));
        assert_eq!(Codec::<u8>::with(&a, |codec| codec.key), codec_key(&a));
    }

    #[test]
    fn packet_geometry() {
        let cfg = cfg16(120);
        // 120 B = 960 info bits → 1932 coded (with tail) at rate 1/2;
        // 48·4 = 192 coded bits per OFDM symbol → 11 symbols.
        assert_eq!(cfg.bits_per_ofdm_symbol(), 192);
        assert_eq!(cfg.ofdm_symbols_per_packet(), 11);
    }

    #[test]
    fn clean_channel_delivers_all_packets() {
        let cfg = cfg16(60);
        let mut rng = StdRng::seed_from_u64(1);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let snr = 60.0;
        let ch = MimoChannel::new(h.clone(), snr);
        let mut det = SphereDecoder::new(cfg.constellation.clone());
        det.prepare(&h, sigma2_from_snr_db(snr));
        let out = simulate_packet(&cfg, &ch, &det, &mut rng);
        assert!(out.user_ok.iter().all(|&ok| ok));
        assert!(out.raw_bit_errors.iter().all(|&e| e == 0));
    }

    #[test]
    fn noisy_channel_fails_packets() {
        let cfg = cfg16(60);
        let mut rng = StdRng::seed_from_u64(2);
        let mut det = MmseDetector::new(cfg.constellation.clone());
        let ens = ChannelEnsemble::iid(4, 4);
        let snr = 2.0; // far below the 16-QAM waterfall
        let (per, _) = packet_error_rate(
            &cfg,
            &mut det,
            6,
            sigma2_from_snr_db(snr),
            |r| MimoChannel::new(ens.draw(r), snr),
            &mut rng,
        );
        assert!(per > 0.8, "PER at 2 dB should be near 1, got {per}");
    }

    #[test]
    fn per_is_monotone_in_snr() {
        let cfg = cfg16(40);
        let ens = ChannelEnsemble::iid(4, 4);
        let mut pers = Vec::new();
        for snr in [6.0, 14.0, 30.0] {
            let mut det = SphereDecoder::new(cfg.constellation.clone());
            let mut rng = StdRng::seed_from_u64(3);
            let (per, _) = packet_error_rate(
                &cfg,
                &mut det,
                12,
                sigma2_from_snr_db(snr),
                |r| MimoChannel::new(ens.draw(r), snr),
                &mut rng,
            );
            pers.push(per);
        }
        assert!(pers[0] >= pers[1] && pers[1] >= pers[2], "{pers:?}");
        assert!(pers[2] < 0.1, "30 dB should be nearly clean: {pers:?}");
    }

    #[test]
    fn packet_error_rate_equals_the_per_vector_reference_loop() {
        // The batch path transmits a packet's vectors first and detects
        // them in one call: its PER and mean effort must equal a loop of
        // `prepare` + `simulate_packet` on the same seed, bit for bit, at
        // an SNR where packets fail.
        use flexcore::FlexCoreDetector;
        use flexcore_detect::{FcsdDetector, ParallelSicDetector};
        let cfg = cfg16(20);
        let c = &cfg.constellation;
        let ens = ChannelEnsemble::iid(4, 4);
        let (snr, n_packets, seed) = (9.0, 5, 0xB47C);
        let sigma2 = sigma2_from_snr_db(snr);
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(FlexCoreDetector::with_pes(c.clone(), 16)),
            Box::new(FlexCoreDetector::adaptive(c.clone(), 16, 0.95)),
            Box::new(FcsdDetector::new(c.clone(), 1)),
            Box::new(MmseDetector::new(c.clone())),
            Box::new(ParallelSicDetector::new(c.clone())),
            Box::new(SphereDecoder::new(c.clone())),
        ];
        for mut det in detectors {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut fails, mut users, mut effort) = (0usize, 0usize, 0usize);
            for _ in 0..n_packets {
                let ch = MimoChannel::new(ens.draw(&mut rng), snr);
                det.prepare(&ch.h, sigma2);
                effort += det.effort();
                let out = simulate_packet(&cfg, &ch, det.as_ref(), &mut rng);
                fails += out.user_ok.iter().filter(|&&ok| !ok).count();
                users += out.user_ok.len();
            }
            let want = (
                fails as f64 / users as f64,
                effort as f64 / n_packets as f64,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let got = packet_error_rate(
                &cfg,
                det.as_mut(),
                n_packets,
                sigma2,
                |r| MimoChannel::new(ens.draw(r), snr),
                &mut rng,
            );
            assert_eq!(got, want, "{}", det.name());
            assert!(fails > 0, "{}: no packet failed at {snr} dB", det.name());
        }
    }

    /// Test-local detector wrapper that counts which entry point a serving
    /// layer drives: `calls.0` = `detect_batch_into` (the scratch-reuse batch
    /// path), `calls.1` = per-vector `detect`. Clones share the counters, so a
    /// template's tally covers every slot an engine stamps from it.
    #[derive(Clone, Debug)]
    struct Counting<D> {
        inner: D,
        calls: Arc<(AtomicU64, AtomicU64)>,
    }

    impl<D> Counting<D> {
        fn new(inner: D) -> Self {
            Counting {
                inner,
                calls: Arc::default(),
            }
        }

        /// `(batch calls, per-vector calls)` so far.
        fn calls(&self) -> (u64, u64) {
            (
                self.calls.0.load(Ordering::Relaxed),
                self.calls.1.load(Ordering::Relaxed),
            )
        }
    }

    impl<D: Detector> Detector for Counting<D> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn prepare(&mut self, h: &CMat, sigma2: f64) {
            self.inner.prepare(h, sigma2)
        }
        fn detect(&self, y: &[Cx]) -> Vec<usize> {
            self.calls.1.fetch_add(1, Ordering::Relaxed);
            self.inner.detect(y)
        }
        fn n_streams(&self) -> usize {
            self.inner.n_streams()
        }
        fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
            self.calls.0.fetch_add(1, Ordering::Relaxed);
            self.inner.detect_batch_into(ys, out)
        }
        fn effort(&self) -> usize {
            self.inner.effort()
        }
        fn extension_work(&self) -> usize {
            self.inner.extension_work()
        }
    }

    #[test]
    fn adaptive_cell_tick_is_bit_identical_and_batch_scheduled() {
        use flexcore::FlexCoreDetector;
        use flexcore_engine::{ChannelStream, StreamingCell};
        use flexcore_parallel::CrossbeamPool;
        // a-FlexCore as a cell user's template: the whole coded packet must
        // equal the sequential per-vector adaptive uplink bit-for-bit, and
        // every subcarrier slot must have been served by the batch fast
        // path, never the per-vector fallback.
        let cfg = cfg16(50);
        let ens = ChannelEnsemble::iid(4, 4);
        let snr = 15.0;
        for seed in [31u64, 32] {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr);
            let mut det = FlexCoreDetector::adaptive(cfg.constellation.clone(), 16, 0.95);
            det.prepare(&h, ch.sigma2);
            let mut rngs = [rng.clone()];
            let reference = simulate_packet(&cfg, &ch, &det, &mut rng);

            let template = Counting::new(FlexCoreDetector::adaptive(
                cfg.constellation.clone(),
                16,
                0.95,
            ));
            let mut cell = StreamingCell::new();
            let stream = ChannelStream::frozen(h, cfg.ofdm.n_data, ch.sigma2);
            cell.add_user(stream, template.clone());
            let pool = CrossbeamPool::work_queue(4);
            let tick = cell_packet_tick(&cfg, &mut cell, &pool, &mut rngs);

            assert_eq!(tick[0].link.user_ok, reference.user_ok, "seed {seed}");
            assert_eq!(
                tick[0].link.raw_bit_errors, reference.raw_bit_errors,
                "seed {seed}"
            );
            let (batch, per_vector) = template.calls();
            assert!(
                batch >= cfg.ofdm.n_data as u64,
                "a subcarrier skipped the batch path"
            );
            assert_eq!(per_vector, 0, "the engine fell back per-vector");
            // The engine exposes the paper's Fig. 10 quantity at packet
            // scale: mean active PEs over the prepared band.
            let stats = cell.engine(0).stats();
            let mean_effort = stats.effort_total as f64 / stats.prepared_subcarriers as f64;
            assert!((1.0..=16.0).contains(&mean_effort), "{mean_effort}");
        }
    }

    #[test]
    fn cell_tick_is_bit_identical_to_single_user_cells() {
        // A 3-user hard tick must reproduce, per user, the outcome of that
        // user alone in a 1-user cell with the same seeds — the sharding
        // is ordering-only all the way through the coded chains.
        use flexcore::FlexCoreDetector;
        use flexcore_channel::ChannelEnsemble;
        use flexcore_engine::StreamingCell;
        use flexcore_parallel::{CrossbeamPool, SequentialPool};
        let cfg = cfg16(30);
        let snr = 18.0;
        let mk_stream = |seed: u64| {
            let ens = ChannelEnsemble::iid(4, 4);
            let mut rng = StdRng::seed_from_u64(seed);
            flexcore_engine::ChannelStream::new(
                &ens,
                cfg.ofdm.n_data,
                0.97,
                4,
                sigma2_from_snr_db(snr),
                &mut rng,
            )
        };
        let mut cell = StreamingCell::new();
        for seed in [91u64, 92, 93] {
            cell.add_user(
                mk_stream(seed),
                FlexCoreDetector::with_pes(cfg.constellation.clone(), 8),
            );
        }
        let mut rngs: Vec<StdRng> = (0..3).map(|u| StdRng::seed_from_u64(700 + u)).collect();
        let pool = CrossbeamPool::work_queue(3);
        for round in 0..2 {
            let outs = cell_packet_tick(&cfg, &mut cell, &pool, &mut rngs);
            assert_eq!(outs.len(), 3);
            for (u, seed) in [91u64, 92, 93].into_iter().enumerate() {
                let mut solo = StreamingCell::new();
                solo.add_user(
                    mk_stream(seed),
                    FlexCoreDetector::with_pes(cfg.constellation.clone(), 8),
                );
                let mut solo_rngs = vec![StdRng::seed_from_u64(700 + u as u64)];
                let mut solo_out = Vec::new();
                for _ in 0..=round {
                    solo_out =
                        cell_packet_tick(&cfg, &mut solo, &SequentialPool::new(1), &mut solo_rngs);
                }
                assert_eq!(outs[u].link.user_ok, solo_out[0].link.user_ok, "user {u}");
                assert_eq!(
                    outs[u].link.raw_bit_errors, solo_out[0].link.raw_bit_errors,
                    "round {round} user {u}"
                );
                assert_eq!(outs[u].crc_ok, solo_out[0].crc_ok);
            }
        }
        // The cell served every user every tick: nobody fell behind.
        let stats = cell.stats();
        assert_eq!(stats.max_frames_behind, 0);
        assert_eq!(stats.frames_completed, 6);
    }

    #[test]
    fn crc_flags_agree_with_payload_comparison() {
        // At a workable SNR the CRC delivery check and the simulator's
        // payload equality must tell the same story.
        use flexcore_engine::{ChannelStream, StreamingCell};
        use flexcore_parallel::SequentialPool;
        let cfg = cfg16(40);
        let ens = ChannelEnsemble::iid(4, 4);
        let snr = 16.0;
        for seed in [1u64, 5, 9] {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = ens.draw(&mut rng);
            let stream = ChannelStream::frozen(h, cfg.ofdm.n_data, sigma2_from_snr_db(snr));
            let mut cell = StreamingCell::new();
            cell.add_user(stream, SphereDecoder::new(cfg.constellation.clone()));
            let out = cell_packet_tick(&cfg, &mut cell, &SequentialPool::new(1), &mut [rng]);
            assert_eq!(out[0].crc_ok, out[0].link.user_ok, "seed {seed}");
        }
    }

    #[test]
    fn a_refused_tick_leaves_every_user_untouched() {
        use flexcore_engine::{ChannelStream, StreamingCell};
        use flexcore_parallel::SequentialPool;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // User 1 arrives with a frame already queued. The tick must refuse
        // before it ages, re-prepares or queues anything for user 0, or a
        // caught panic would leave user 0 a frame the next tick decodes
        // against the wrong payloads.
        let cfg = cfg16(20);
        let ens = ChannelEnsemble::iid(4, 4);
        let mut rng = StdRng::seed_from_u64(8);
        let mut cell = StreamingCell::new();
        for _ in 0..2 {
            let stream = ChannelStream::new(&ens, cfg.ofdm.n_data, 0.97, 4, 0.05, &mut rng);
            cell.add_user(stream, MmseDetector::new(cfg.constellation.clone()));
        }
        let early = cell
            .stream(1)
            .transmit_frame_into(1, |_, _, x| x.fill(Cx::ZERO), &mut rng);
        cell.submit(1, early);
        let truth_before = cell.stream(0).truth(0).clone();
        let mut rngs: Vec<StdRng> = (0..2).map(StdRng::seed_from_u64).collect();
        let tick = catch_unwind(AssertUnwindSafe(|| {
            cell_packet_tick(&cfg, &mut cell, &SequentialPool::new(1), &mut rngs)
        }));
        assert!(tick.is_err(), "a pre-queued frame must be refused");
        assert_eq!(cell.pending(0), 0, "user 0 was given a frame");
        assert!(cell.stream(0).truth(0) == &truth_before, "user 0 was aged");
        assert_eq!(cell.pending(1), 1);
    }

    #[test]
    fn coding_repairs_residual_symbol_errors() {
        // At a moderate SNR the raw BER is non-zero but the convolutional
        // code should still deliver most packets — the mechanism behind the
        // throughput "cliff" in Fig. 9.
        let cfg = cfg16(40);
        let mut rng = StdRng::seed_from_u64(4);
        let ens = ChannelEnsemble::iid(4, 4);
        let snr = 17.0;
        let h = ens.draw(&mut rng);
        let ch = MimoChannel::new(h.clone(), snr);
        let mut det = SphereDecoder::new(cfg.constellation.clone());
        det.prepare(&h, sigma2_from_snr_db(snr));
        let mut ok = 0usize;
        for _ in 0..12 {
            let out = simulate_packet(&cfg, &ch, &det, &mut rng);
            ok += out.user_ok.iter().filter(|&&k| k).count();
        }
        // At least some packets delivered despite raw errors.
        assert!(ok > 0, "expected some successes");
    }
}
