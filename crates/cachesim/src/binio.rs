//! Compact binary trace serialization: fixed-width DVFT v1 and the
//! compressed block-indexed DVFT2 format.
//!
//! The text format (`Trace::to_text`) is convenient but ~16 bytes per
//! reference; kernel traces run to tens of millions of references.
//!
//! **v1** stores each reference in 11 bytes:
//!
//! ```text
//! header:  magic "DVFT", version u8 (= 1), name count u16,
//!          then per name: length u16 + UTF-8 bytes
//! records: ds u16 | kind u8 (0 = read, 1 = write) | addr u64   (LE)
//! ```
//!
//! **v2** ([`write_binary_v2`] / [`TraceWriter`]) delta-encodes addresses
//! per data structure with zigzag LEB128 varints, run-length-encodes
//! repeated strides, and groups records into independently decodable
//! blocks so a reader can fan block decoding across threads:
//!
//! ```text
//! file    = magic "DVFT", version u8 (= 2), block*, trailer
//! block   = 0x01, varint record_count, varint payload_len, payload
//! trailer = 0x00,
//!           varint name_count, { varint len, UTF-8 bytes }*,
//!           varint block_count, { varint body_offset, varint count }*,
//!           trailer_len u32 LE, end magic "2TFV"
//! ```
//!
//! Payload records are one tag byte plus optional varints. Tag bit 7 set
//! means a *run*: the low 7 bits repeat the previous record's
//! (structure, kind, address delta) 1–127 more times. Otherwise bit 0 is
//! the access kind, bits 1–5 the structure id (31 = escape, real id
//! follows as a varint) and bit 6 set reuses the structure's previous
//! delta (no varint follows). Per-structure delta state resets at every
//! block boundary, which is what makes blocks independently decodable.
//! [`TraceReader`] auto-detects the version; [`read_binary`] decodes v2
//! blocks in parallel with scoped threads.

use crate::trace::{AccessKind, DsId, DsRegistry, MemRef, Trace};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"DVFT";
const VERSION: u8 = 1;
const VERSION2: u8 = 2;
/// Bytes per serialized v1 reference record.
const RECORD_BYTES: usize = 11;

/// v2 body byte introducing a record block.
const BLOCK_MARKER: u8 = 0x01;
/// v2 body byte introducing the index trailer (end of blocks).
const END_MARKER: u8 = 0x00;
/// Trailing magic closing a v2 file.
const END_MAGIC: &[u8; 4] = b"2TFV";
/// Records per v2 block (the run/delta state reset interval, and the
/// granularity of parallel decode).
const BLOCK_RECORDS: u32 = 1 << 16;
/// Tag bit marking a run token.
const RUN_BIT: u8 = 0x80;
/// Tag bit reusing the structure's previous delta.
const REP_DELTA_BIT: u8 = 0x40;
/// In-tag structure id meaning "real id follows as a varint".
const ESCAPE_DS: u8 = 31;

/// Serialize a trace in the fixed-width v1 format.
///
/// No tool writes v1 any more (`dump_trace` and `simtrace --convert`
/// write DVFT2), but readers still accept it. This writer stays as the
/// fixture writer: the v1 reader's tests, the `fuzz_binio` and
/// `simtrace_cli` tests and the oracle's tests build their v1 inputs with
/// it, so deleting it would only move it into test code.
pub fn write_binary<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    let names: Vec<&str> = trace.registry.iter().map(|(_, n)| n).collect();
    let count = u16::try_from(names.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many structures"))?;
    w.write_all(&count.to_le_bytes())?;
    for name in names {
        let len = u16::try_from(name.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "name too long"))?;
        w.write_all(&len.to_le_bytes())?;
        w.write_all(name.as_bytes())?;
    }
    for r in &trace.refs {
        w.write_all(&r.ds.0.to_le_bytes())?;
        w.write_all(&[match r.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        }])?;
        w.write_all(&r.addr.to_le_bytes())?;
    }
    Ok(())
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `read_exact` with a descriptive error naming the header field that was
/// cut short, instead of a bare `UnexpectedEof`.
fn read_exact_field<R: Read>(r: &mut R, buf: &mut [u8], field: &str) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            bad(format!(
                "truncated DVFT header: ran out of bytes in {field}"
            ))
        } else {
            e
        }
    })
}

/// Deserialize a trace written by [`write_binary`] or [`write_binary_v2`]
/// (the version is auto-detected).
///
/// Materializes the full reference vector — v2 files are decoded block-
/// parallel with scoped threads. For bounded-memory replay use
/// [`TraceReader`] and feed chunks straight into a simulator.
pub fn read_binary<R: Read>(r: R) -> io::Result<Trace> {
    let reader = TraceReader::new(r)?;
    let mut trace = Trace::new();
    for (_, name) in reader.registry().iter() {
        trace.registry.register(name);
    }
    match reader.inner {
        ReaderKind::V1(mut v1) => {
            let mut chunk = Vec::new();
            while v1.read_chunk(&mut chunk, DEFAULT_CHUNK)? > 0 {
                trace.refs.extend_from_slice(&chunk);
            }
        }
        ReaderKind::V2(v2) => {
            trace.refs = v2.decode_all_parallel()?;
        }
    }
    Ok(trace)
}

/// Default references per [`TraceReader::read_chunk`] call (~704 KiB of
/// records, ~1.5 MiB resident with the decoded `MemRef`s).
pub const DEFAULT_CHUNK: usize = 65_536;

/// Incremental DVFT reader: parses the header once, then decodes records
/// in caller-sized chunks so multi-gigabyte traces replay in bounded
/// memory.
///
/// ```no_run
/// use dvf_cachesim::{binio::TraceReader, CacheConfig, Simulator};
///
/// let file = std::fs::File::open("kernel.dvft").unwrap();
/// let mut reader = TraceReader::new(std::io::BufReader::new(file)).unwrap();
/// let mut sim = Simulator::new(CacheConfig::new(8, 8192, 64).unwrap());
/// let mut chunk = Vec::new();
/// while reader.read_chunk(&mut chunk, 65_536).unwrap() > 0 {
///     sim.run(&chunk);
/// }
/// let report = sim.finish();
/// ```
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inner: ReaderKind<R>,
}

#[derive(Debug)]
enum ReaderKind<R: Read> {
    V1(V1Reader<R>),
    V2(V2Reader),
}

impl<R: Read> TraceReader<R> {
    /// Parse the DVFT header and detect the format version.
    ///
    /// v1 leaves the reader positioned at the records and decodes them
    /// incrementally. v2 stores its structure dictionary and block index
    /// in a trailer, so the (compressed, several times smaller than the
    /// decoded references) remaining bytes are buffered up front and
    /// blocks are decoded lazily per [`TraceReader::read_chunk`] call.
    ///
    /// Headers come from untrusted input, so every length field is
    /// treated as a claim, not a fact: claims are validated against the
    /// bytes actually present, duplicate structure names are rejected
    /// (the registry would otherwise silently alias two slots to one id,
    /// shifting every later record's identity), and each failure names
    /// the field that was malformed.
    pub fn new(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        read_exact_field(&mut r, &mut magic, "magic")?;
        if &magic != MAGIC {
            return Err(bad("not a DVFT trace (bad magic)"));
        }
        let mut version = [0u8; 1];
        read_exact_field(&mut r, &mut version, "version")?;
        match version[0] {
            VERSION => Ok(Self {
                inner: ReaderKind::V1(V1Reader::after_header(r)?),
            }),
            VERSION2 => {
                let mut data = Vec::new();
                r.read_to_end(&mut data)?;
                Ok(Self {
                    inner: ReaderKind::V2(V2Reader::parse(data)?),
                })
            }
            v => Err(bad(format!(
                "unsupported DVFT version {v} (expected {VERSION} or {VERSION2})"
            ))),
        }
    }

    /// Data-structure names declared by the trace.
    pub fn registry(&self) -> &DsRegistry {
        match &self.inner {
            ReaderKind::V1(r) => &r.registry,
            ReaderKind::V2(r) => &r.registry,
        }
    }

    /// Detected format version (1 or 2).
    pub fn version(&self) -> u8 {
        match &self.inner {
            ReaderKind::V1(_) => VERSION,
            ReaderKind::V2(_) => VERSION2,
        }
    }

    /// Decode up to `max` references into `out` (cleared first), returning
    /// how many were produced. `Ok(0)` means the trace is exhausted.
    ///
    /// `max` bounds the *output*, not the scratch allocation: v1 input is
    /// staged through a fixed-size slab and v2 decodes one block at a
    /// time, so `read_chunk(&mut out, usize::MAX)` is safe (though `out`
    /// itself grows with the record count).
    pub fn read_chunk(&mut self, out: &mut Vec<MemRef>, max: usize) -> io::Result<usize> {
        match &mut self.inner {
            ReaderKind::V1(r) => r.read_chunk(out, max),
            ReaderKind::V2(r) => r.read_chunk(out, max),
        }
    }
}

/// Incremental decoder for the fixed-width v1 record stream.
#[derive(Debug)]
struct V1Reader<R: Read> {
    inner: R,
    registry: DsRegistry,
    /// Undecoded tail bytes carried between `read_chunk` calls (a read can
    /// end mid-record; only EOF mid-record is corruption).
    carry: Vec<u8>,
    eof: bool,
}

impl<R: Read> V1Reader<R> {
    /// Parse the v1 name table (the bytes after magic + version), leaving
    /// the reader positioned at the records.
    fn after_header(mut r: R) -> io::Result<Self> {
        let mut buf2 = [0u8; 2];
        read_exact_field(&mut r, &mut buf2, "structure count")?;
        let count = u16::from_le_bytes(buf2);

        let mut registry = DsRegistry::new();
        for idx in 0..count {
            read_exact_field(&mut r, &mut buf2, &format!("length of name {idx}"))?;
            let len = u16::from_le_bytes(buf2) as usize;
            // Bounded read: allocate as bytes arrive instead of trusting
            // `len` up front, then verify the claim was honest.
            let mut name = Vec::new();
            (&mut r).take(len as u64).read_to_end(&mut name)?;
            if name.len() < len {
                return Err(bad(format!(
                    "truncated DVFT header: name {idx} claims {len} bytes, only {} present",
                    name.len()
                )));
            }
            let name =
                String::from_utf8(name).map_err(|_| bad(format!("name {idx} is not UTF-8")))?;
            if registry.id(&name).is_some() {
                return Err(bad(format!("duplicate structure name `{name}` in header")));
            }
            registry.register(&name);
        }
        Ok(Self {
            inner: r,
            registry,
            carry: Vec::new(),
            eof: false,
        })
    }

    /// Raw bytes buffered per refill pass of [`read_chunk`]. A caller
    /// passing a huge `max` (or `usize::MAX` for "everything") gets its
    /// records in full, but the staging buffer never grows past this.
    const SLAB_BYTES: usize = 1 << 20;

    /// Decode up to `max` references into `out` (cleared first), returning
    /// how many were produced. `Ok(0)` means the trace is exhausted.
    ///
    /// `max` bounds the *output*, not the scratch allocation: input is
    /// staged through a fixed-size slab, so `read_chunk(&mut out, usize::MAX)`
    /// is safe (it decodes the whole trace without a proportional upfront
    /// buffer, though `out` itself grows with the record count).
    pub fn read_chunk(&mut self, out: &mut Vec<MemRef>, max: usize) -> io::Result<usize> {
        out.clear();
        if max == 0 {
            return Ok(0);
        }
        let count = self.registry.len() as u16;
        while out.len() < max {
            let budget = max - out.len();
            let want = budget
                .saturating_mul(RECORD_BYTES)
                .clamp(RECORD_BYTES, Self::SLAB_BYTES);
            // Top the carry buffer up to one slab of raw record bytes.
            while !self.eof && self.carry.len() < want {
                let start = self.carry.len();
                self.carry.resize(want, 0);
                let n = self.inner.read(&mut self.carry[start..])?;
                self.carry.truncate(start + n);
                if n == 0 {
                    self.eof = true;
                }
            }
            let whole_bytes = self.carry.len() / RECORD_BYTES * RECORD_BYTES;
            if self.eof && self.carry.len() > whole_bytes {
                return Err(bad(format!(
                    "truncated record at end of trace ({} stray bytes)",
                    self.carry.len() - whole_bytes
                )));
            }
            let take_bytes = budget.min(whole_bytes / RECORD_BYTES) * RECORD_BYTES;
            for record in self.carry[..take_bytes].chunks_exact(RECORD_BYTES) {
                let ds = u16::from_le_bytes([record[0], record[1]]);
                if ds >= count {
                    return Err(bad(format!(
                        "record names unregistered structure id {ds} (header declared {count})"
                    )));
                }
                let kind = match record[2] {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    k => return Err(bad(format!("bad access kind byte {k}"))),
                };
                let addr = u64::from_le_bytes(record[3..RECORD_BYTES].try_into().expect("8 bytes"));
                out.push(MemRef::new(DsId(ds), addr, kind));
            }
            self.carry.drain(..take_bytes);
            if self.eof && self.carry.is_empty() {
                break;
            }
            if take_bytes == 0 {
                // No whole record decoded and not at EOF shouldn't happen
                // (the refill loop runs until eof or >= RECORD_BYTES), but
                // guard against a pathological `Read` impl looping forever.
                break;
            }
        }
        Ok(out.len())
    }
}

// ---------------------------------------------------------------------------
// DVFT2: varint + delta + run-length encoding in indexed blocks.
// ---------------------------------------------------------------------------

/// Append an LEB128 varint.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Decode an LEB128 varint from `buf` at `*pos`, advancing `*pos`.
fn read_varint(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    for i in 0..10 {
        let Some(&b) = buf.get(*pos) else {
            return Err(bad("truncated varint"));
        };
        *pos += 1;
        // Byte 10 carries the top single bit of a u64: a larger low part
        // overflows, and a continuation bit would run past 64 bits.
        if i == 9 && b > 1 {
            return Err(bad("corrupt varint: continuation past 64 bits"));
        }
        v |= ((b & 0x7f) as u64) << (7 * i);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    unreachable!("loop returns or errors within 10 bytes");
}

/// Zigzag-map a signed delta so small magnitudes of either sign get short
/// varints.
#[inline]
fn zigzag_encode(d: i64) -> u64 {
    ((d as u64) << 1) ^ ((d >> 63) as u64)
}

/// Inverse of [`zigzag_encode`].
#[inline]
fn zigzag_decode(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Streaming DVFT2 encoder.
///
/// Register structure names (in [`DsId`] order), push references, then
/// call [`TraceWriter::finish`] — the name dictionary and block index are
/// written as a trailer, so the encoder itself never buffers more than
/// one block.
///
/// ```no_run
/// use dvf_cachesim::binio::TraceWriter;
/// use dvf_cachesim::MemRef;
///
/// let file = std::fs::File::create("kernel.dvft").unwrap();
/// let mut w = TraceWriter::new(std::io::BufWriter::new(file)).unwrap();
/// let a = w.register("A").unwrap();
/// for i in 0..1_000u64 {
///     w.push(MemRef::read(a, i * 8)).unwrap();
/// }
/// w.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    names: Vec<String>,
    /// Per-structure previous address (reset each block).
    last_addr: Vec<u64>,
    /// Per-structure previous delta (reset each block).
    last_delta: Vec<i64>,
    /// (ds, kind) of the previous record in the current block.
    prev: Option<(u16, AccessKind)>,
    /// Pending run length extending the previous record (≤ 127).
    run: u32,
    /// Payload bytes of the block being built.
    block: Vec<u8>,
    /// Records already encoded into `block` (excluding the pending run).
    block_records: u32,
    /// Body bytes written so far (block offsets for the index).
    body_pos: u64,
    /// (body offset, record count) per flushed block.
    index: Vec<(u64, u32)>,
}

impl<W: Write> TraceWriter<W> {
    /// Start a v2 trace, writing the file header immediately.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(MAGIC)?;
        out.write_all(&[VERSION2])?;
        Ok(Self {
            out,
            names: Vec::new(),
            last_addr: Vec::new(),
            last_delta: Vec::new(),
            prev: None,
            run: 0,
            block: Vec::new(),
            block_records: 0,
            body_pos: 0,
            index: Vec::new(),
        })
    }

    /// Register a structure name, returning its id. Registering the same
    /// name twice returns the existing id.
    pub fn register(&mut self, name: &str) -> io::Result<DsId> {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            return Ok(DsId(pos as u16));
        }
        if self.names.len() >= u16::MAX as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "too many structures",
            ));
        }
        self.names.push(name.to_owned());
        self.last_addr.push(0);
        self.last_delta.push(0);
        Ok(DsId((self.names.len() - 1) as u16))
    }

    /// Register every name of an existing registry, preserving ids.
    pub fn register_all(&mut self, registry: &DsRegistry) -> io::Result<()> {
        for (_, name) in registry.iter() {
            self.register(name)?;
        }
        Ok(())
    }

    /// Encode one reference. Its structure id must already be registered.
    #[inline]
    pub fn push(&mut self, r: MemRef) -> io::Result<()> {
        let dsi = r.ds.index();
        if dsi >= self.names.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("reference names unregistered structure id {}", r.ds.0),
            ));
        }
        let delta = r.addr.wrapping_sub(self.last_addr[dsi]) as i64;
        if self.prev == Some((r.ds.0, r.kind)) && delta == self.last_delta[dsi] {
            // Extends the previous record: same structure, kind and stride.
            self.last_addr[dsi] = r.addr;
            self.run += 1;
            if self.run == 127 {
                self.flush_run();
            }
        } else {
            self.flush_run();
            let esc = dsi >= ESCAPE_DS as usize;
            let rep = delta == self.last_delta[dsi];
            let ds_bits = if esc { ESCAPE_DS } else { dsi as u8 };
            let tag = (ds_bits << 1)
                | match r.kind {
                    AccessKind::Read => 0,
                    AccessKind::Write => 1,
                }
                | if rep { REP_DELTA_BIT } else { 0 };
            self.block.push(tag);
            if esc {
                write_varint(&mut self.block, dsi as u64);
            }
            if !rep {
                write_varint(&mut self.block, zigzag_encode(delta));
            }
            self.last_addr[dsi] = r.addr;
            self.last_delta[dsi] = delta;
            self.prev = Some((r.ds.0, r.kind));
            self.block_records += 1;
        }
        if self.block_records + self.run >= BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Materialize the pending run as a run token.
    fn flush_run(&mut self) {
        if self.run > 0 {
            self.block.push(RUN_BIT | self.run as u8);
            self.block_records += self.run;
            self.run = 0;
        }
    }

    /// Write out the current block (if non-empty) and reset delta state.
    fn flush_block(&mut self) -> io::Result<()> {
        self.flush_run();
        if self.block_records == 0 {
            return Ok(());
        }
        self.index.push((self.body_pos, self.block_records));
        let mut header = Vec::with_capacity(11);
        header.push(BLOCK_MARKER);
        write_varint(&mut header, self.block_records as u64);
        write_varint(&mut header, self.block.len() as u64);
        self.out.write_all(&header)?;
        self.out.write_all(&self.block)?;
        self.body_pos += (header.len() + self.block.len()) as u64;
        self.block.clear();
        self.block_records = 0;
        self.prev = None;
        self.last_addr.fill(0);
        self.last_delta.fill(0);
        Ok(())
    }

    /// Flush the final block, write the dictionary + block index trailer
    /// and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_block()?;
        let mut trailer = Vec::new();
        write_varint(&mut trailer, self.names.len() as u64);
        for n in &self.names {
            write_varint(&mut trailer, n.len() as u64);
            trailer.extend_from_slice(n.as_bytes());
        }
        write_varint(&mut trailer, self.index.len() as u64);
        for &(off, count) in &self.index {
            write_varint(&mut trailer, off);
            write_varint(&mut trailer, count as u64);
        }
        let tlen = u32::try_from(1 + trailer.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "index trailer too large"))?;
        self.out.write_all(&[END_MARKER])?;
        self.out.write_all(&trailer)?;
        self.out.write_all(&tlen.to_le_bytes())?;
        self.out.write_all(END_MAGIC)?;
        Ok(self.out)
    }
}

/// Serialize a trace in the compressed block-indexed v2 format.
pub fn write_binary_v2<W: Write>(trace: &Trace, w: W) -> io::Result<()> {
    let mut tw = TraceWriter::new(w)?;
    tw.register_all(&trace.registry)?;
    for &r in &trace.refs {
        tw.push(r)?;
    }
    tw.finish()?;
    Ok(())
}

/// One parsed v2 block: payload location (absolute offsets into the
/// buffered file bytes) and its record count from the index.
#[derive(Debug, Clone)]
struct BlockEntry {
    payload_start: usize,
    payload_len: usize,
    count: usize,
}

/// Buffered v2 decoder: the trailer is parsed up front, blocks decode
/// lazily (sequentially via `read_chunk`, or block-parallel via
/// `decode_all_parallel`).
#[derive(Debug)]
struct V2Reader {
    /// Every byte after magic + version.
    data: Vec<u8>,
    registry: DsRegistry,
    blocks: Vec<BlockEntry>,
    next_block: usize,
    pending: Vec<MemRef>,
    pending_pos: usize,
}

impl V2Reader {
    /// Parse the trailer (dictionary + block index) and cross-check the
    /// index against the actual block layout. Every length and offset is
    /// an untrusted claim; a record count is additionally bounded by the
    /// most a payload of that size could decode to (127 records per run
    /// byte), so a corrupt index cannot demand absurd allocations.
    fn parse(data: Vec<u8>) -> io::Result<V2Reader> {
        let (registry, blocks) = parse_v2_container(&data)?;
        Ok(V2Reader {
            data,
            registry,
            blocks,
            next_block: 0,
            pending: Vec::new(),
            pending_pos: 0,
        })
    }

    /// Sequential chunked decode (see [`TraceReader::read_chunk`]).
    fn read_chunk(&mut self, out: &mut Vec<MemRef>, max: usize) -> io::Result<usize> {
        out.clear();
        if max == 0 {
            return Ok(0);
        }
        while out.len() < max {
            if self.pending_pos == self.pending.len() {
                let Some(entry) = self.blocks.get(self.next_block).cloned() else {
                    break;
                };
                self.next_block += 1;
                self.pending.clear();
                self.pending_pos = 0;
                self.pending.reserve(entry.count);
                let payload =
                    &self.data[entry.payload_start..entry.payload_start + entry.payload_len];
                let pending = &mut self.pending;
                decode_block(payload, entry.count, self.registry.len(), |r| {
                    pending.push(r);
                })?;
            }
            let take = (max - out.len()).min(self.pending.len() - self.pending_pos);
            out.extend_from_slice(&self.pending[self.pending_pos..self.pending_pos + take]);
            self.pending_pos += take;
        }
        Ok(out.len())
    }

    /// Decode every block, fanning independent blocks across
    /// [`dvf_obs::par::map_mut`] workers (one per core), and return the
    /// full reference vector.
    fn decode_all_parallel(self) -> io::Result<Vec<MemRef>> {
        let names = self.registry.len();
        let total = self
            .blocks
            .iter()
            .try_fold(0usize, |a, b| a.checked_add(b.count))
            .ok_or_else(|| bad("block index record count overflows"))?;
        let mut refs = vec![MemRef::read(DsId(0), 0); total];
        // One (block, output slot) pair per block.
        let mut rest = refs.as_mut_slice();
        let mut blocks: Vec<(&BlockEntry, &mut [MemRef])> = Vec::with_capacity(self.blocks.len());
        for entry in &self.blocks {
            let (slot, tail) = std::mem::take(&mut rest).split_at_mut(entry.count);
            rest = tail;
            blocks.push((entry, slot));
        }
        let data = &self.data;
        dvf_obs::par::map_mut(&mut blocks, dvf_obs::par::available(), |(entry, slot)| {
            let payload = &data[entry.payload_start..entry.payload_start + entry.payload_len];
            let mut i = 0;
            decode_block(payload, entry.count, names, |r| {
                slot[i] = r;
                i += 1;
            })
        })
        .into_iter()
        .collect::<io::Result<()>>()?;
        Ok(refs)
    }
}

/// Parse a v2 container (everything after magic + version): dictionary,
/// block index, and full cross-check of the index against the body.
fn parse_v2_container(data: &[u8]) -> io::Result<(DsRegistry, Vec<BlockEntry>)> {
    let n = data.len();
    if n < 8 {
        return Err(bad("truncated DVFT2 trace: missing index trailer"));
    }
    if &data[n - 4..] != END_MAGIC {
        return Err(bad(
            "truncated DVFT2 trace: end magic missing (block index cut short?)",
        ));
    }
    let tlen = u32::from_le_bytes(data[n - 8..n - 4].try_into().expect("4 bytes")) as usize;
    let trailer_start = n
        .checked_sub(8)
        .and_then(|v| v.checked_sub(tlen))
        .ok_or_else(|| bad("corrupt DVFT2 block index: trailer length exceeds file"))?;
    if tlen == 0 || data[trailer_start] != END_MARKER {
        return Err(bad(
            "corrupt DVFT2 block index: end-of-blocks sentinel missing",
        ));
    }
    let trailer = &data[trailer_start + 1..n - 8];
    let mut pos = 0usize;

    let name_count = read_varint(trailer, &mut pos)?;
    if name_count > u16::MAX as u64 {
        return Err(bad(format!("too many structures ({name_count})")));
    }
    let mut registry = DsRegistry::new();
    for idx in 0..name_count {
        let len = usize::try_from(read_varint(trailer, &mut pos)?)
            .map_err(|_| bad(format!("name {idx} length overflows")))?;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= trailer.len())
            .ok_or_else(|| {
                bad(format!(
                    "truncated DVFT2 dictionary: name {idx} claims {len} bytes"
                ))
            })?;
        let name = std::str::from_utf8(&trailer[pos..end])
            .map_err(|_| bad(format!("name {idx} is not UTF-8")))?;
        if registry.id(name).is_some() {
            return Err(bad(format!(
                "duplicate structure name `{name}` in dictionary"
            )));
        }
        registry.register(name);
        pos = end;
    }

    let body = &data[..trailer_start];
    let block_count = read_varint(trailer, &mut pos)?;
    // Every block occupies at least 4 body bytes (marker + two varints +
    // one payload byte): bound the claim before allocating the index.
    if block_count > (body.len() as u64) / 4 {
        return Err(bad(
            "corrupt DVFT2 block index: more blocks than the body could hold",
        ));
    }
    let mut blocks = Vec::with_capacity(block_count as usize);
    let mut expected = 0usize;
    for b in 0..block_count {
        let off = usize::try_from(read_varint(trailer, &mut pos)?)
            .map_err(|_| bad(format!("block {b} offset overflows")))?;
        let count = read_varint(trailer, &mut pos)?;
        if off != expected {
            return Err(bad(format!(
                "corrupt DVFT2 block index: block {b} at offset {off} does not abut the previous block (expected {expected})"
            )));
        }
        if body.get(off) != Some(&BLOCK_MARKER) {
            return Err(bad(format!(
                "corrupt DVFT2 block index: no block at offset {off}"
            )));
        }
        let mut hpos = off + 1;
        let hcount = read_varint(body, &mut hpos)?;
        let plen = usize::try_from(read_varint(body, &mut hpos)?)
            .map_err(|_| bad(format!("block {b} payload length overflows")))?;
        if hcount != count {
            return Err(bad(format!(
                "block {b}: index claims {count} records, block header says {hcount}"
            )));
        }
        if count == 0 {
            return Err(bad(format!("block {b} is empty")));
        }
        if count > (plen as u64).saturating_mul(127) {
            return Err(bad(format!(
                "block {b}: record count {count} impossible for a {plen}-byte payload"
            )));
        }
        let pend = hpos
            .checked_add(plen)
            .filter(|&e| e <= body.len())
            .ok_or_else(|| bad(format!("block {b}: truncated payload")))?;
        blocks.push(BlockEntry {
            payload_start: hpos,
            payload_len: plen,
            count: count as usize,
        });
        expected = pend;
    }
    if expected != body.len() {
        return Err(bad("DVFT2 body bytes not covered by the block index"));
    }
    if pos != trailer.len() {
        return Err(bad("trailing garbage in DVFT2 index trailer"));
    }
    Ok((registry, blocks))
}

/// Decode one block payload, emitting exactly `count` references.
///
/// Per-structure delta state starts from zero (the writer resets at
/// block boundaries), so blocks decode independently of each other.
fn decode_block(
    payload: &[u8],
    count: usize,
    names: usize,
    mut emit: impl FnMut(MemRef),
) -> io::Result<()> {
    let mut last_addr = vec![0u64; names];
    let mut last_delta = vec![0i64; names];
    let mut prev: Option<(u16, AccessKind)> = None;
    let mut pos = 0usize;
    let mut emitted = 0usize;
    while emitted < count {
        let Some(&tag) = payload.get(pos) else {
            return Err(bad("truncated block payload"));
        };
        pos += 1;
        if tag & RUN_BIT != 0 {
            let n = (tag & 0x7f) as usize;
            if n == 0 {
                return Err(bad("zero-length run token"));
            }
            let Some((ds, kind)) = prev else {
                return Err(bad("run token with no preceding record in block"));
            };
            if emitted + n > count {
                return Err(bad("run token overruns the block record count"));
            }
            let d = last_delta[ds as usize];
            let mut addr = last_addr[ds as usize];
            for _ in 0..n {
                addr = addr.wrapping_add(d as u64);
                emit(MemRef::new(DsId(ds), addr, kind));
            }
            last_addr[ds as usize] = addr;
            emitted += n;
        } else {
            let kind = if tag & 1 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let mut ds = ((tag >> 1) & 0x1f) as u64;
            if ds == ESCAPE_DS as u64 {
                ds = read_varint(payload, &mut pos)?;
            }
            if ds >= names as u64 {
                return Err(bad(format!(
                    "record names out-of-range structure id {ds} (dictionary has {names})"
                )));
            }
            let dsi = ds as usize;
            let d = if tag & REP_DELTA_BIT != 0 {
                last_delta[dsi]
            } else {
                zigzag_decode(read_varint(payload, &mut pos)?)
            };
            let addr = last_addr[dsi].wrapping_add(d as u64);
            last_addr[dsi] = addr;
            last_delta[dsi] = d;
            prev = Some((ds as u16, kind));
            emit(MemRef::new(DsId(ds as u16), addr, kind));
            emitted += 1;
        }
    }
    if pos != payload.len() {
        return Err(bad("trailing bytes in block payload"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        let grid = t.registry.register("Grid");
        t.push(MemRef::read(a, 0x10));
        t.push(MemRef::write(grid, u64::MAX));
        t.push(MemRef::read(a, 12345));
        t
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back.refs, t.refs);
        assert_eq!(back.registry.name(DsId(1)), "Grid");
    }

    #[test]
    fn record_size_is_eleven_bytes() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let header = 4 + 1 + 2 + (2 + 1) + (2 + 4);
        assert_eq!(buf.len(), header + 11 * t.len());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_binary(&b"NOPE"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_truncated_record() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_unknown_structure_id() {
        let mut t = Trace::new();
        t.registry.register("A");
        t.push(MemRef::read(DsId(0), 1));
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        // Corrupt the record's ds id (first record byte after the header).
        let header = 4 + 1 + 2 + 2 + 1;
        buf[header] = 9;
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_bad_kind_byte() {
        let mut t = Trace::new();
        t.registry.register("A");
        t.push(MemRef::read(DsId(0), 1));
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let header = 4 + 1 + 2 + 2 + 1;
        buf[header + 2] = 7;
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn chunked_reader_matches_full_read() {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        let b = t.registry.register("B");
        for i in 0..1000u64 {
            let ds = if i % 3 == 0 { b } else { a };
            t.push(MemRef::new(ds, i * 17, AccessKind::Read));
        }
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();

        // Chunk sizes that do and don't divide the record count.
        for chunk_size in [1usize, 7, 100, 1000, 5000] {
            let mut reader = TraceReader::new(buf.as_slice()).unwrap();
            assert_eq!(reader.registry().len(), 2);
            let mut refs = Vec::new();
            let mut chunk = Vec::new();
            loop {
                let n = reader.read_chunk(&mut chunk, chunk_size).unwrap();
                if n == 0 {
                    break;
                }
                assert!(n <= chunk_size);
                refs.extend_from_slice(&chunk);
            }
            assert_eq!(refs, t.refs, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn chunked_reader_rejects_truncation() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut chunk = Vec::new();
        let mut err = None;
        loop {
            match reader.read_chunk(&mut chunk, 2) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(err.unwrap().to_string().contains("truncated"));
    }

    /// A reader that hands out one byte per `read` call: worst-case
    /// fragmentation for the carry buffer.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn rejects_truncation_mid_header() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        // Header layout: magic(4) version(1) count(2) | len(2) "A" | len(2) "Grid".
        // Cut at every prefix of the header and demand a descriptive error.
        let header_len = 4 + 1 + 2 + (2 + 1) + (2 + 4);
        for cut in 0..header_len {
            let err = TraceReader::new(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
            let msg = err.to_string();
            assert!(
                msg.contains("truncated") || msg.contains("magic") || msg.contains("claims"),
                "cut at {cut}: {msg}"
            );
        }
        // The full header parses.
        assert!(TraceReader::new(&buf[..header_len]).is_ok());
    }

    #[test]
    fn rejects_duplicate_header_names() {
        // Hand-built header declaring "A" twice: the registry would
        // otherwise dedupe them and alias two ids onto one slot.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"DVFT");
        buf.push(1);
        buf.extend_from_slice(&2u16.to_le_bytes());
        for _ in 0..2 {
            buf.extend_from_slice(&1u16.to_le_bytes());
            buf.push(b'A');
        }
        let err = TraceReader::new(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn header_claiming_more_than_present_is_rejected() {
        // count = 65535 and a name length claiming 65535 bytes against a
        // near-empty input: must error out, not trust the claim.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"DVFT");
        buf.push(1);
        buf.extend_from_slice(&u16::MAX.to_le_bytes());
        buf.extend_from_slice(&u16::MAX.to_le_bytes());
        buf.extend_from_slice(b"tiny");
        let err = TraceReader::new(buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("claims"), "{msg}");
    }

    #[test]
    fn read_chunk_with_max_below_record_count() {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        for i in 0..10u64 {
            t.push(MemRef::read(a, i));
        }
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();

        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut chunk = Vec::new();
        let mut sizes = Vec::new();
        let mut refs = Vec::new();
        loop {
            let n = reader.read_chunk(&mut chunk, 3).unwrap();
            if n == 0 {
                break;
            }
            sizes.push(n);
            refs.extend_from_slice(&chunk);
        }
        assert_eq!(sizes, vec![3, 3, 3, 1]);
        assert_eq!(refs, t.refs);
    }

    #[test]
    fn read_chunk_with_huge_max_stays_bounded() {
        // `max` bounds output, not scratch: usize::MAX must not attempt a
        // proportional allocation (the old code computed max * 11 bytes).
        let mut t = Trace::new();
        let a = t.registry.register("A");
        for i in 0..1000u64 {
            t.push(MemRef::read(a, i));
        }
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut chunk = Vec::new();
        assert_eq!(reader.read_chunk(&mut chunk, usize::MAX).unwrap(), 1000);
        assert_eq!(chunk, t.refs);
        assert_eq!(reader.read_chunk(&mut chunk, usize::MAX).unwrap(), 0);
    }

    #[test]
    fn chunked_reader_survives_fragmented_reads() {
        // A one-byte-at-a-time reader forces every carry-buffer partial
        // fill path; decoded output must still be identical.
        let mut t = Trace::new();
        let a = t.registry.register("A");
        let b = t.registry.register("B");
        for i in 0..257u64 {
            let ds = if i % 2 == 0 { a } else { b };
            t.push(MemRef::new(ds, i * 31, AccessKind::Read));
        }
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();

        let mut reader = TraceReader::new(Dribble(&buf)).unwrap();
        assert_eq!(reader.registry().len(), 2);
        let mut refs = Vec::new();
        let mut chunk = Vec::new();
        loop {
            let n = reader.read_chunk(&mut chunk, 7).unwrap();
            if n == 0 {
                break;
            }
            refs.extend_from_slice(&chunk);
        }
        assert_eq!(refs, t.refs);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.registry.len(), 0);
    }

    // -- DVFT2 --

    fn encode_v2(t: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary_v2(t, &mut buf).unwrap();
        buf
    }

    #[test]
    fn varint_roundtrips() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // Eleven continuation bytes: runs past 64 bits.
        let buf = [0xffu8; 11];
        let mut pos = 0;
        let err = read_varint(&buf, &mut pos).unwrap_err();
        assert!(err.to_string().contains("varint"), "{err}");
        // Continuation bit set on the final available byte.
        let buf = [0x80u8];
        let mut pos = 0;
        let err = read_varint(&buf, &mut pos).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn zigzag_roundtrips() {
        for d in [
            0i64,
            1,
            -1,
            63,
            -64,
            1 << 40,
            -(1 << 40),
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(zigzag_decode(zigzag_encode(d)), d);
        }
        // Small magnitudes of either sign map to small codes.
        assert!(zigzag_encode(-3) < 8);
        assert!(zigzag_encode(3) < 8);
    }

    #[test]
    fn v2_roundtrip() {
        let t = sample();
        let buf = encode_v2(&t);
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back.refs, t.refs);
        assert_eq!(back.registry.name(DsId(1)), "Grid");
    }

    #[test]
    fn v2_empty_trace_roundtrips() {
        let t = Trace::new();
        let buf = encode_v2(&t);
        let back = read_binary(buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.registry.len(), 0);
    }

    #[test]
    fn v2_reader_reports_version_and_registry() {
        let t = sample();
        let buf = encode_v2(&t);
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.version(), 2);
        assert_eq!(reader.registry().len(), 2);
        let mut v1buf = Vec::new();
        write_binary(&t, &mut v1buf).unwrap();
        assert_eq!(TraceReader::new(v1buf.as_slice()).unwrap().version(), 1);
    }

    /// A mixed-pattern trace exercising runs, delta reuse, kind flips,
    /// escaped structure ids (> 30) and wild address jumps.
    fn gnarly_trace() -> Trace {
        let mut t = Trace::new();
        let ids: Vec<DsId> = (0..40)
            .map(|i| t.registry.register(&format!("ds{i}")))
            .collect();
        // Strided run on ds0.
        for i in 0..500u64 {
            t.push(MemRef::read(ids[0], 0x1000 + i * 64));
        }
        // Interleaved writes on an escaped id.
        for i in 0..100u64 {
            t.push(MemRef::write(ids[35], (1 << 40) | (i * 8)));
            t.push(MemRef::read(ids[3], i * 32));
        }
        // Address extremes and backwards strides.
        t.push(MemRef::read(ids[39], u64::MAX));
        t.push(MemRef::read(ids[39], 0));
        t.push(MemRef::write(ids[39], u64::MAX / 2));
        for i in (0..300u64).rev() {
            t.push(MemRef::write(ids[2], i * 128));
        }
        // Kind flip breaking a run at the same stride.
        for i in 0..50u64 {
            let r = MemRef::new(
                ids[1],
                i * 8,
                if i == 25 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            );
            t.push(r);
        }
        t
    }

    #[test]
    fn v2_roundtrip_gnarly() {
        let t = gnarly_trace();
        let buf = encode_v2(&t);
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back.refs, t.refs);
        assert_eq!(back.registry.len(), t.registry.len());
    }

    #[test]
    fn v2_multi_block_roundtrip_and_chunked_reads() {
        // > 2 blocks worth of records, mixing runs and random jumps.
        let mut t = Trace::new();
        let a = t.registry.register("A");
        let b = t.registry.register("B");
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in 0..200_000u64 {
            if i % 5 == 0 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                t.push(MemRef::read(b, state % (1 << 22)));
            } else {
                t.push(MemRef::read(a, i * 8));
            }
        }
        let buf = encode_v2(&t);
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back.refs.len(), t.refs.len());
        assert_eq!(back.refs, t.refs);

        // Chunk sizes that do and don't divide block boundaries.
        for chunk_size in [913usize, 65_536, 100_000] {
            let mut reader = TraceReader::new(buf.as_slice()).unwrap();
            let mut refs = Vec::new();
            let mut chunk = Vec::new();
            loop {
                let n = reader.read_chunk(&mut chunk, chunk_size).unwrap();
                if n == 0 {
                    break;
                }
                assert!(n <= chunk_size);
                refs.extend_from_slice(&chunk);
            }
            assert_eq!(refs, t.refs, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn v2_compresses_streaming_traces() {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        for i in 0..100_000u64 {
            t.push(MemRef::read(a, i * 8));
        }
        let mut v1 = Vec::new();
        write_binary(&t, &mut v1).unwrap();
        let v2 = encode_v2(&t);
        // Strided single-structure streams are nearly pure run tokens.
        assert!(
            v2.len() * 100 < v1.len(),
            "v1 {} bytes, v2 {} bytes",
            v1.len(),
            v2.len()
        );
    }

    #[test]
    fn v2_rejects_truncation_at_every_cut() {
        let t = sample();
        let buf = encode_v2(&t);
        for cut in 0..buf.len() {
            assert!(
                read_binary(&buf[..cut]).is_err(),
                "cut at {cut} of {} decoded",
                buf.len()
            );
        }
    }

    #[test]
    fn v2_rejects_out_of_range_ds() {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        t.push(MemRef::read(a, 0x40));
        let mut buf = encode_v2(&t);
        // Body starts after "DVFT\x02"; block header is marker + two
        // one-byte varints, so the first payload byte (the record tag) is
        // at offset 8. Rewrite its ds bits to the unregistered id 5.
        assert_eq!(buf[5], BLOCK_MARKER);
        buf[8] = 5 << 1;
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("out-of-range"), "{err}");
    }

    #[test]
    fn v2_rejects_trailer_length_lies() {
        let t = sample();
        let buf = encode_v2(&t);
        let n = buf.len();
        // Claim a trailer longer than the file.
        let mut lie = buf.clone();
        lie[n - 8..n - 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_binary(lie.as_slice()).is_err());
        // Claim a zero-length trailer (sentinel byte missing).
        let mut lie = buf.clone();
        lie[n - 8..n - 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(read_binary(lie.as_slice()).is_err());
        // Break the end magic.
        let mut lie = buf;
        lie[n - 1] ^= 0xff;
        let err = read_binary(lie.as_slice()).unwrap_err();
        assert!(err.to_string().contains("end magic"), "{err}");
    }

    #[test]
    fn v2_rejects_index_count_mismatch() {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        for i in 0..10u64 {
            t.push(MemRef::read(a, i * 64));
        }
        let mut buf = encode_v2(&t);
        // Block header: marker at 5, record count varint at 6 (value 10).
        assert_eq!(buf[5], BLOCK_MARKER);
        assert_eq!(buf[6], 10);
        buf[6] = 9;
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("index claims"), "{err}");
    }

    #[test]
    fn v2_writer_rejects_unregistered_ds() {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.register("A").unwrap();
        assert!(w.push(MemRef::read(DsId(3), 0)).is_err());
    }

    #[test]
    fn v2_writer_register_deduplicates() {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        let a = w.register("A").unwrap();
        let b = w.register("B").unwrap();
        assert_eq!(w.register("A").unwrap(), a);
        assert_ne!(a, b);
    }

    #[test]
    fn v1_golden_bytes_decode_byte_exactly() {
        // Hand-assembled v1 file: two names, three records. Guards v1
        // wire-format compatibility against regressions while v2 evolves.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"DVFT");
        buf.push(1);
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.push(b'A');
        buf.extend_from_slice(&4u16.to_le_bytes());
        buf.extend_from_slice(b"Grid");
        for (ds, kind, addr) in [(0u16, 0u8, 0x10u64), (1, 1, u64::MAX), (0, 0, 12345)] {
            buf.extend_from_slice(&ds.to_le_bytes());
            buf.push(kind);
            buf.extend_from_slice(&addr.to_le_bytes());
        }
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back.refs, sample().refs);
        assert_eq!(back.registry.name(DsId(0)), "A");
        assert_eq!(back.registry.name(DsId(1)), "Grid");
        // And the same trace re-encoded as v1 is byte-identical.
        let mut reenc = Vec::new();
        write_binary(&back, &mut reenc).unwrap();
        assert_eq!(reenc, buf);
    }

    #[test]
    fn v2_rejects_unknown_version_byte() {
        let buf = b"DVFT\x03rest";
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("unsupported"), "{err}");
    }
}
