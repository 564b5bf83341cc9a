//! TSV import/export.
//!
//! A dependency-free tabular format: numeric matrix files (one row per
//! line, tab-separated) and scan-result tables with the same columns as
//! the paper's R demo data frame (`beta, sigma, tstat, pval`).
//!
//! Reading X is most of what a `dash party` process does, so the reader
//! works on bytes (DESIGN §5.2): `LineReader` hands out lines as slices
//! of one buffer, `parse_cell` is the one place that decides what a
//! numeric cell is — an exact fast path for plain decimals, `str::parse`
//! for everything else, the same `f64` bit for bit either way — and
//! [`read_matrix`] writes each value once into its column-major slot, or
//! [`StreamedParty`] reads a block of columns at a time into the scan.
//! Writing mirrors it: `TextOut::cell` is the one place a number becomes
//! text — Ryu's shortest digits for the normal values below 2⁵³, `{}` for
//! the rest, the bytes of `{}` either way (DESIGN §5.5).

use crate::error::GwasError;
use dash_core::model::{RowSink, ScanResult};
use dash_core::secure::SummandSource;
use dash_core::suffstats::{y_dots, VariantSummands};
use dash_core::CoreError;
use dash_linalg::{Matrix, ScanDots, ScanLanes};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

mod shortest;

/// Writes a matrix as TSV (rows × columns).
pub fn write_matrix_tsv(path: &Path, m: &Matrix) -> Result<(), GwasError> {
    write_matrix(&mut std::fs::File::create(path)?, m)
}

/// Writes a matrix to any writer.
pub fn write_matrix(w: &mut impl Write, m: &Matrix) -> Result<(), GwasError> {
    let mut text = TextOut::new(w);
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            if j > 0 {
                text.buf.push(b'\t');
            }
            text.cell(m.get(i, j));
        }
        text.end_row()?;
    }
    text.finish()
}

/// Bytes of text gathered before the writer sees any of it.
const WRITE_CHUNK: usize = 1 << 16;

/// The longest text `{}` gives an `f64`: −5e-324, "-0." and 323 zeros
/// before its one digit.
const LONGEST_CELL: usize = 327;

/// The longest variant index, `usize::MAX`.
const LONGEST_INDEX: usize = usize::MAX.ilog10() as usize + 1;

/// Room past a chunk for the row that crosses it: the longest scan-result
/// row, an index, four cells, four tabs and a newline, so that buffer
/// never reallocates (a longer matrix row still grows it).
const ROW_ROOM: usize = LONGEST_INDEX + 4 * LONGEST_CELL + 5;

/// Table text on its way to a writer: cells are written straight into
/// one reused byte buffer (no per-cell trip through `core::fmt`)
/// and the writer is handed `WRITE_CHUNK` bytes or more at a time, so it
/// needs no buffer of its own.
struct TextOut<W: Write> {
    w: W,
    buf: Vec<u8>,
}

impl<W: Write> TextOut<W> {
    fn new(w: W) -> Self {
        TextOut {
            w,
            buf: Vec::with_capacity(WRITE_CHUNK + ROW_ROOM),
        }
    }

    /// The one place a number becomes text: Rust's `{}`, which is
    /// shortest-roundtrip, and NaN spelled so `parse` accepts it back
    /// whatever its sign. `shortest::push` writes `{}`'s bytes for the
    /// normal values below 2⁵³ that make up a scan's rows; `{}` itself
    /// writes the rest (DESIGN §5.5).
    fn cell(&mut self, v: f64) {
        if shortest::push(&mut self.buf, v) {
            return;
        }
        if v.is_nan() {
            self.buf.extend_from_slice(b"NaN");
        } else {
            write!(self.buf, "{v}").expect("writing into a Vec cannot fail");
        }
    }

    fn end_row(&mut self) -> Result<(), GwasError> {
        self.buf.push(b'\n');
        if self.buf.len() >= WRITE_CHUNK {
            self.finish()?;
        }
        Ok(())
    }

    /// Hands the writer everything gathered so far.
    fn finish(&mut self) -> Result<(), GwasError> {
        self.w.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

/// Bytes asked of the input per `read` (DESIGN §5.2 has the measurement).
const CHUNK: usize = 1 << 16;

/// Rows parsed into the row-major scratch before it is copied into the
/// column-major destination: sixteen `f64` are two whole cache lines of
/// every destination column (DESIGN §5.2 has the measurement). A
/// [`StreamedParty`] block's tile has as many rows.
const TILE_ROWS: usize = 16;

/// Reads a TSV matrix from a file.
pub fn read_matrix_tsv(path: &Path) -> Result<Matrix, GwasError> {
    read_matrix(std::fs::File::open(path)?)
}

/// Reads a TSV matrix from any seekable reader, from its current position
/// to its end.
///
/// One row per line, cells separated by tabs. A line without a tab that
/// is empty after `str::trim` is blank and skipped; every other line is a
/// row (so `"\t"` is a row of two empty cells, not a blank line). A cell
/// is whatever `str::trim` + `str::parse::<f64>` accepts and has exactly
/// that value; anything else is [`GwasError::Parse`] with its line,
/// column and token. Rows of different lengths and an input without rows
/// are [`GwasError::MalformedTable`].
///
/// The reader never builds a `str` of a whole line, so bytes that are not
/// UTF-8 are a `Parse` error of the cell they sit in (token rendered
/// lossily), not an `Io(InvalidData)` for the file. That and the `"\t"`
/// row above are the only inputs on which it differs from the
/// `lines()`/`split`/`trim`/`parse` reader it replaced, which the tests
/// keep as their oracle.
///
/// Two passes over the input: the first finds the shape, the second
/// parses into the one allocation the matrix keeps, so peak memory is the
/// matrix plus a tile of `TILE_ROWS` rows plus one read buffer.
pub fn read_matrix(r: impl Read + Seek) -> Result<Matrix, GwasError> {
    read_matrix_chunked(r, CHUNK)
}

/// [`read_matrix`] with the read size as a parameter, so tests can put a
/// chunk boundary inside every line.
fn read_matrix_chunked(mut r: impl Read + Seek, chunk: usize) -> Result<Matrix, GwasError> {
    let origin = r.stream_position()?;
    let mut lines = LineReader::new(r, chunk);

    // Shape pass: rows are the non-blank lines, columns those of the first.
    let (mut rows, mut cols) = (0usize, 0usize);
    while let Some((_, line)) = lines.next_line()? {
        if is_blank(line) {
            continue;
        }
        if rows == 0 {
            cols = 1 + line.iter().filter(|&&b| b == b'\t').count();
        }
        rows += 1;
    }
    if rows == 0 {
        return Err(GwasError::MalformedTable {
            line: 0,
            detail: "empty matrix file",
        });
    }
    // Every cell but the last is followed by its tab or newline, so a
    // table has at most one more cell than bytes. A counted shape beyond
    // that has a short row somewhere: sizing the destination by the bytes
    // keeps the allocation bounded by the input, and the parse pass
    // reports the row at fault before it runs out of destination rows.
    let rows = rows.min((lines.pos() as usize + 1) / cols);
    let tile_rows = TILE_ROWS.min(rows);
    let mut data = vec![0.0f64; rows * cols];
    let mut tile = vec![0.0f64; tile_rows * cols];

    // Parse pass: a full tile goes column by column into `data`, so each
    // destination cache line is written once, whole, instead of once per
    // row.
    lines.seek(origin, chunk)?;
    let changed = || GwasError::MalformedTable {
        line: 0,
        detail: "input changed while it was read",
    };
    let done = parse_rows(&mut lines, &mut tile, cols, 0, |tile, first| {
        if first + tile.len() / cols > rows {
            return Err(changed());
        }
        flush_tile(tile, cols, &mut data[first..], rows);
        Ok(())
    })?;
    if done != rows {
        return Err(changed());
    }
    Ok(Matrix::from_column_major(rows, cols, data).expect("data was sized rows * cols"))
}

/// The one cell-parsing loop: parses the rows left in `lines` into the
/// row-major `tile` (rows of `cols` cells) and hands each full tile, then
/// a last partial one, to `full` with the index of its first row (`done`
/// rows came before). Returns the count of all rows.
fn parse_rows<R: Read + Seek>(
    lines: &mut LineReader<R>,
    tile: &mut [f64],
    cols: usize,
    mut done: usize,
    mut full: impl FnMut(&[f64], usize) -> Result<(), GwasError>,
) -> Result<usize, GwasError> {
    let tile_rows = tile.len() / cols;
    while let Some((lineno, line)) = lines.next_line()? {
        if is_blank(line) {
            continue;
        }
        let in_tile = done % tile_rows;
        parse_row(lineno, line, &mut tile[in_tile * cols..][..cols])?;
        done += 1;
        if done.is_multiple_of(tile_rows) {
            full(tile, done - tile_rows)?;
        }
    }
    let rest = done % tile_rows;
    if rest > 0 {
        full(&tile[..rest * cols], done - rest)?;
    }
    Ok(done)
}

/// Parses the cells of row `line` (line number `lineno`) into `out`, which
/// holds as many cells as the first row.
fn parse_row(lineno: usize, line: &[u8], out: &mut [f64]) -> Result<(), GwasError> {
    let (mut start, mut column) = (0usize, 0usize);
    loop {
        let (value, end) = parse_cell(line, start);
        let value = value.ok_or_else(|| parse_error(lineno, column + 1, &line[start..end]))?;
        // A row longer than the first is reported once all its cells have
        // parsed, as the ragged check always was.
        if let Some(slot) = out.get_mut(column) {
            *slot = value;
        }
        column += 1;
        if end == line.len() {
            break;
        }
        start = end + 1;
    }
    if column != out.len() {
        return Err(GwasError::MalformedTable {
            line: lineno,
            detail: "ragged row",
        });
    }
    Ok(())
}

/// Copies the row-major `tile` (rows of `cols` cells) into the front of
/// each column of the column-major `data` (columns `stride` cells apart).
fn flush_tile(tile: &[f64], cols: usize, data: &mut [f64], stride: usize) {
    let height = tile.len() / cols;
    for (c, column) in data.chunks_mut(stride).take(cols).enumerate() {
        for (r, slot) in column[..height].iter_mut().enumerate() {
            *slot = tile[r * cols + c];
        }
    }
}

/// A party that never holds `X`: each block parses its columns of `X`'s
/// TSV from a byte cursor per row into [`ScanLanes`], so it keeps N
/// cursors and one block's lanes and tile. Its bits and errors are those of
/// [`PartyData`](dash_core::model::PartyData) over [`read_matrix`], once
/// the row count is y's (DESIGN §5.2); errors are [`CoreError::Source`].
pub struct StreamedParty<R = std::fs::File> {
    y: Vec<f64>,
    c: Matrix,
    m: usize,
    origin: u64,
    /// `X`'s text and, once found, each row's next cell and its column.
    x: Mutex<(LineReader<R>, Option<Cursors>)>,
}

type Cursors = (Vec<u64>, usize);

impl<R: Read + Seek> StreamedParty<R> {
    /// A party with response `y` and covariates `c` whose N×M table `x`
    /// is read up to the end of its first row here, which gives M.
    pub fn open(y: Vec<f64>, c: Matrix, x: R) -> Result<Self, GwasError> {
        Self::new(y, c, x, CHUNK)
    }

    fn new(y: Vec<f64>, c: Matrix, mut x: R, chunk: usize) -> Result<Self, GwasError> {
        if c.rows() != y.len() {
            let what = "C rows vs y length";
            return Err(GwasError::ShapeMismatch {
                what,
                expected: y.len(),
                got: c.rows(),
            });
        }
        let origin = x.stream_position()?;
        let mut text = LineReader::new(x, chunk);
        let m = loop {
            match text.blank_line()? {
                Some(true) => {}
                Some(false) => break 1 + text.pass(usize::MAX, false)?.0,
                None => {
                    let detail = "empty matrix file";
                    return Err(GwasError::MalformedTable { line: 0, detail });
                }
            }
        };
        let x = Mutex::new((text, None));
        Ok(StreamedParty { y, c, m, origin, x })
    }

    /// The dots of columns `[lo, hi)` of `X`: the first call, or one behind
    /// the cursors, passes over all of `X`, and others start at them.
    fn block(&self, q: &Matrix, lo: usize, hi: usize) -> Result<ScanDots, CoreError> {
        // A block that panicked left no cursors: the next one starts over.
        let mut x = self.x.lock().unwrap_or_else(PoisonError::into_inner);
        let (text, cursors) = &mut *x;
        let (n, last) = (self.y.len(), hi == self.m);
        let mut fold = Fold::new(&self.y, q, hi - lo);
        let (mut rows, mut count, mut ok) = (Vec::with_capacity(n), 0, true);
        let mut read = || -> std::io::Result<()> {
            match cursors.take() {
                Some((from, col)) if lo >= col => {
                    // A row's block is read at once, as long as the last.
                    let mut want = text.chunk;
                    for at in from {
                        text.seek(at, want)?;
                        ok = ok && text.row(lo - col, fold.next_row(), last)?.0;
                        want = (text.pos() - at) as usize * 9 / 8 + 64;
                        rows.push(text.pos());
                    }
                    count = n;
                }
                _ => {
                    text.seek(self.origin, text.chunk)?;
                    while let Some(blank) = text.blank_line()? {
                        let mut line_ended = blank;
                        if !blank && count < n && ok {
                            (ok, line_ended) = text.row(lo, fold.next_row(), last)?;
                            rows.push(text.pos());
                        }
                        if !line_ended {
                            text.end_line()?;
                        }
                        count += usize::from(!blank);
                    }
                }
            }
            Ok(())
        };
        read().map_err(source)?;
        if count != n {
            return Err(shape("X rows vs y length", n, count));
        }
        if !ok {
            // `read_matrix`'s error: an earlier row may hold one further on.
            let detail = "input changed while it was read";
            let rows = (text.seek(self.origin, text.chunk).map_err(GwasError::from))
                .and_then(|()| parse_rows(text, &mut vec![0.0; self.m], self.m, 0, |_, _| Ok(())));
            let error = rows
                .err()
                .unwrap_or(GwasError::MalformedTable { line: 0, detail });
            return Err(source(error));
        }
        *cursors = Some((rows, hi));
        Ok(fold.finish())
    }
}

fn source(e: impl Into<GwasError>) -> CoreError {
    let what = e.into().to_string();
    CoreError::Source { what }
}

fn shape(what: &'static str, expected: usize, got: usize) -> CoreError {
    CoreError::ShapeMismatch {
        what,
        expected,
        got,
    }
}

/// A block's columns on their way into the kernel: rows go into a
/// column-major tile, which is folded into the lanes whenever it fills.
struct Fold<'a> {
    y: &'a [f64],
    q: &'a Matrix,
    tile: Vec<f64>,
    lanes: ScanLanes,
    rows: usize,
}

impl<'a> Fold<'a> {
    fn new(y: &'a [f64], q: &'a Matrix, width: usize) -> Self {
        let tile = vec![0.0; TILE_ROWS * width];
        let lanes = ScanLanes::new(width, q.cols());
        Fold {
            y,
            q,
            tile,
            lanes,
            rows: 0,
        }
    }

    /// Where the next row's cells go, once a full tile is folded.
    fn next_row(&mut self) -> impl Iterator<Item = &mut f64> {
        if self.rows > 0 && self.rows.is_multiple_of(TILE_ROWS) {
            self.fold(TILE_ROWS);
        }
        self.rows += 1;
        let at = (self.rows - 1) % TILE_ROWS;
        self.tile[at..].iter_mut().step_by(TILE_ROWS)
    }

    /// Folds the tile's `h` rows, the last of them row `rows`, down to a
    /// multiple of 4.
    fn fold(&mut self, h: usize) {
        let (rows, body, tile) = (self.rows - h..self.rows - h % 4, h - h % 4, &self.tile);
        let columns = |j: usize| &tile[j * TILE_ROWS..][..body];
        self.lanes.fold(columns, self.y, self.q, rows);
    }

    /// The block's dots: the last tile's `N mod 4` rows finish the lanes.
    fn finish(mut self) -> ScanDots {
        let (n, h) = (self.rows, (self.rows - 1) % TILE_ROWS + 1);
        self.fold(h);
        let tail = n % 4;
        let tail_rows = |j: usize| &self.tile[j * TILE_ROWS + h - tail..][..tail];
        self.lanes.finish(tail_rows, self.y, self.q, n - tail..n)
    }
}

impl<R: Read + Seek + Send> SummandSource for StreamedParty<R> {
    fn n_samples(&self) -> usize {
        self.y.len()
    }
    fn n_variants(&self) -> usize {
        self.m
    }
    fn covariates(&self) -> &Matrix {
        &self.c
    }
    fn y_summands(&self, q: &Matrix) -> Result<(f64, Vec<f64>), CoreError> {
        y_dots(&self.y, q)
    }
    /// Reads columns `[lo, hi)` of every row of `X`; an empty range, none.
    fn summands_block(
        &self,
        q: &Matrix,
        lo: usize,
        hi: usize,
    ) -> Result<VariantSummands, CoreError> {
        if q.rows() != self.y.len() {
            return Err(shape("streamed summands Q rows", self.y.len(), q.rows()));
        }
        if lo > hi || hi > self.m {
            return Err(shape("streamed summands column range", self.m, hi));
        }
        let ScanDots { xy, xx, atx } = if lo == hi {
            ScanLanes::new(0, q.cols()).finish(|_| &[], &self.y, q, 0..0)
        } else {
            self.block(q, lo, hi)?
        };
        let qtx = atx;
        Ok(VariantSummands { lo, xy, xx, qtx })
    }
}

/// A line is blank when it has no tab and is empty after `str::trim`. The
/// tab is tested apart because `trim` takes it for whitespace: a line
/// with one is a row, whatever its cells hold.
fn is_blank(line: &[u8]) -> bool {
    !line.contains(&b'\t') && std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty())
}

fn parse_error(line: usize, column: usize, token: &[u8]) -> GwasError {
    GwasError::Parse {
        line,
        column,
        token: String::from_utf8_lossy(token).into_owned(),
    }
}

/// A byte stream through one reused buffer, a line or a cell at a time,
/// that keeps only what its caller holds, `buf[held..]`: `BufRead::lines`
/// without a `String` per line or UTF-8 validation. A line ends at `\n`,
/// and one `\r` before it is dropped, as `lines()` drops it.
struct LineReader<R> {
    r: R,
    chunk: usize,
    buf: Vec<u8>,
    /// The stream offset of `buf[0]`, from the start or the last `seek`.
    base: u64,
    /// `buf[held..at]` is kept, `buf[at..len]` read and not yet passed.
    held: usize,
    at: usize,
    len: usize,
    line: usize,
    /// The size of the next read; `chunk` after it.
    want: usize,
}

impl<R: Read + Seek> LineReader<R> {
    fn new(r: R, chunk: usize) -> Self {
        LineReader {
            r,
            chunk,
            buf: Vec::new(),
            base: 0,
            held: 0,
            at: 0,
            len: 0,
            line: 0,
            want: chunk,
        }
    }

    fn pos(&self) -> u64 {
        self.base + self.at as u64
    }

    /// Moves to offset `to` of the stream, where the next read is `want`.
    fn seek(&mut self, to: u64, want: usize) -> std::io::Result<()> {
        self.r.seek(SeekFrom::Start(to))?;
        (self.base, self.held, self.at, self.len) = (to, 0, 0, 0);
        (self.line, self.want) = (0, want);
        Ok(())
    }

    /// Reads behind `buf[held..len]` (`buf[at..len]` unless `keep`), growing
    /// the buffer when that fills it; false at the end of the input.
    fn fill(&mut self, keep: bool) -> std::io::Result<bool> {
        if !keep {
            self.held = self.at;
        }
        if self.held > 0 {
            self.buf.copy_within(self.held..self.len, 0);
            self.base += self.held as u64;
            (self.at, self.len, self.held) = (self.at - self.held, self.len - self.held, 0);
        }
        let room = self.len + std::mem::replace(&mut self.want, self.chunk);
        if self.buf.len() < room {
            self.buf.resize(room, 0);
        }
        let n = loop {
            match self.r.read(&mut self.buf[self.len..room]) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                other => break other?,
            }
        };
        self.len += n;
        Ok(n > 0)
    }

    /// Where the line ends (`None`: at the end of the input), kept or not.
    fn newline(&mut self, keep: bool) -> std::io::Result<Option<usize>> {
        let mut searched = self.at;
        loop {
            if let Some(k) = find_byte(&self.buf[searched..self.len], b'\n') {
                return Ok(Some(searched + k));
            }
            if !keep {
                self.at = self.len;
            }
            searched = if keep { self.len - self.held } else { 0 };
            if !self.fill(keep)? {
                return Ok(None);
            }
        }
    }

    /// The next line and its number, or `None` at the end of the input.
    fn next_line(&mut self) -> std::io::Result<Option<(usize, &[u8])>> {
        self.held = self.at;
        let newline = self.newline(true)?;
        let start = self.held;
        let (end, next) = match newline {
            Some(nl) if nl > start && self.buf[nl - 1] == b'\r' => (nl - 1, nl + 1),
            Some(nl) => (nl, nl + 1),
            None if start == self.len => return Ok(None),
            None => (self.len, self.len),
        };
        (self.at, self.line) = (next, self.line + 1);
        Ok(Some((self.line, &self.buf[start..end])))
    }

    /// Passes up to `cells` tabs, or fewer and the line's end; returns the
    /// tabs passed and whether the line ended.
    fn pass(&mut self, cells: usize, keep: bool) -> std::io::Result<(usize, bool)> {
        let mut tabs = 0;
        while tabs < cells {
            if self.at == self.len && !self.fill(keep)? {
                return Ok((tabs, true));
            }
            let byte = self.buf[self.at];
            self.at += 1;
            if byte == b'\n' {
                return Ok((tabs, true));
            }
            tabs += usize::from(byte == b'\t');
        }
        Ok((tabs, false))
    }

    /// Passes the rest of the line.
    fn end_line(&mut self) -> std::io::Result<()> {
        self.at = self.newline(false)?.map_or(self.len, |nl| nl + 1);
        Ok(())
    }

    /// At a line's start: whether it is blank (then passed); `None` at the end.
    fn blank_line(&mut self) -> std::io::Result<Option<bool>> {
        self.held = self.at;
        if self.at == self.len && !self.fill(true)? {
            return Ok(None);
        }
        // The first cell, or the whole line and its newline if it has no tab.
        let blank = self.pass(1, true)?.0 == 0 && is_blank(&self.buf[self.held..self.at]);
        self.at = if blank { self.at } else { self.held };
        Ok(Some(blank))
    }

    /// Passes `skip` cells of a row and parses the next ones into `out`.
    /// Returns whether they are good and end the row just when `last`, and
    /// whether the line ended.
    fn row<'o>(
        &mut self,
        skip: usize,
        out: impl Iterator<Item = &'o mut f64>,
        last: bool,
    ) -> std::io::Result<(bool, bool)> {
        if skip > 0 && self.pass(skip, false)?.1 {
            return Ok((false, true));
        }
        let mut slots = out.peekable();
        while slots.peek().is_some() {
            // The cells before the last tab or newline read are whole.
            self.held = self.at;
            let safe = match self.buf[self.at..self.len]
                .iter()
                .rposition(|&b| b == b'\t' || b == b'\n')
            {
                Some(k) => self.at + k,
                None if self.fill(true)? => continue,
                None => self.len,
            };
            while self.at <= safe {
                let Some(slot) = slots.next() else { break };
                let (value, end) = parse_cell(&self.buf[..safe], self.at);
                let line_end = self.buf[..self.len].get(end) != Some(&b'\t');
                self.at = self.len.min(end + 1);
                *slot = match value {
                    Some(value) => value,
                    None => return Ok((false, line_end)),
                };
                if line_end {
                    return Ok((slots.peek().is_none() && last, true));
                }
            }
        }
        Ok((!last, false))
    }
}

/// Index of the first `needle` in `hay`, eight bytes at a time.
fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let words = hay.chunks_exact(8);
    let tail = words.remainder();
    let tail_at = hay.len() - tail.len();
    for (i, word) in words.enumerate() {
        // A byte of `x` is zero where `hay` holds the needle; the lowest
        // flag of the zero-byte test is exact (borrows only travel up).
        let x =
            u64::from_le_bytes(word.try_into().expect("chunks_exact(8)")) ^ (LOW * needle as u64);
        let zero = x.wrapping_sub(LOW) & !x & HIGH;
        if zero != 0 {
            return Some(i * 8 + (zero.trailing_zeros() / 8) as usize);
        }
    }
    tail.iter().position(|&b| b == needle).map(|k| tail_at + k)
}

/// The one place that decides what a numeric TSV cell is.
///
/// Parses the cell that starts at `line[start]` and runs to the next tab
/// or newline or the end of the line; returns its value, `None` when it
/// is not a number, and the index where it ends. Plain decimals are decided by
/// `exact_decimal`; every other cell — padding, `\r`, exponents,
/// `inf`/`nan`, long mantissas, garbage — by `str::trim` +
/// `str::parse::<f64>`, which `exact_decimal` agrees with bit for bit
/// wherever it answers.
fn parse_cell(line: &[u8], start: usize) -> (Option<f64>, usize) {
    if let Some((value, end)) = exact_decimal(line, start) {
        return (Some(value), end);
    }
    let end = line[start..].iter().position(|&b| b == b'\t' || b == b'\n');
    let end = end.map_or(line.len(), |k| start + k);
    let value = std::str::from_utf8(&line[start..end])
        .ok()
        .and_then(|s| s.trim().parse().ok());
    (value, end)
}

/// The largest mantissa an `f64` holds exactly, 2⁵³.
const MAX_EXACT_MANTISSA: u64 = 1 << 53;

/// The powers of ten an `f64` holds exactly: 10⁰ ..= 10²².
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `[+-] digits [. digits]` from `line[start]` up to a tab or the end of
/// the line, on Clinger's exact path only: the digits read as one integer
/// `m` that fits a `u64` (19 digits, leading zeros aside) and is at most
/// 2⁵³, and at most 22 of them follow the point. Then `m` and `10^frac`
/// are both exact `f64`s, IEEE division rounds their quotient correctly,
/// and the correctly rounded value of the decimal is what `str::parse`
/// returns. Anything else — a limit exceeded, no digit at all, a byte
/// after the number that is not a tab — is `None`: not mine.
fn exact_decimal(line: &[u8], start: usize) -> Option<(f64, usize)> {
    // Signs are as good as random, so no branch on them.
    let first = line.get(start).copied().unwrap_or(0);
    let negative = first == b'-';
    let int_start = start + usize::from(negative | (first == b'+'));
    let mut m = 0u64;
    // The integer part is a digit or two as a rule: a byte loop whose exit
    // the branch predictor learns, so the fraction's first load does not
    // wait for a computed digit count (see `digit_run`).
    let mut int_end = int_start;
    while let Some(d) = line
        .get(int_end)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d < 10)
    {
        m = m.checked_mul(10)?.checked_add(u64::from(d))?;
        int_end += 1;
    }
    let (end, frac) = if line.get(int_end) == Some(&b'.') {
        let end = digit_run(line, int_end + 1, &mut m)?;
        (end, end - int_end - 1)
    } else {
        (int_end, 0)
    };
    let digits = int_end - int_start + frac;
    let ends_cell = end == line.len() || line[end] == b'\t';
    if digits == 0 || m > MAX_EXACT_MANTISSA || frac >= EXACT_POW10.len() || !ends_cell {
        return None;
    }
    let value = m as f64 / EXACT_POW10[frac];
    Some((
        f64::from_bits(value.to_bits() | u64::from(negative) << 63),
        end,
    ))
}

/// Appends the decimal digits at `line[at..]` to `m`; returns the index
/// after the last one, or `None` when `m` would not fit a `u64`.
///
/// Eight digits a step: byte at a time, `m = m·10 + d` is a serial
/// multiply chain fifteen deep for a full-precision fraction, and costs
/// more than everything else the parse pass does to a cell (DESIGN §5.2).
fn digit_run(line: &[u8], mut at: usize, m: &mut u64) -> Option<usize> {
    const POW10: [u64; 9] = [
        1,
        10,
        100,
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
    ];
    loop {
        let (value, count) = leading_digits(&line[at..]);
        *m = m.checked_mul(POW10[count])?.checked_add(value)?;
        // A branch, not `at += count`: a full step is the predictable
        // case, and the predictor then knows where the next load is
        // without waiting for this one's digit count.
        if count == 8 {
            at += 8;
        } else {
            return Some(at + count);
        }
    }
}

/// The value and the count (0 ..= 8) of the decimal digits at the front of
/// the first eight bytes of `s`, by word arithmetic (SWAR).
fn leading_digits(s: &[u8]) -> (u64, usize) {
    const ZEROS: u64 = 0x3030_3030_3030_3030;
    let word = match s.first_chunk::<8>() {
        Some(bytes) => u64::from_le_bytes(*bytes),
        None => {
            // The end of a line: pad with a byte that is not a digit.
            let mut bytes = [0u8; 8];
            bytes[..s.len()].copy_from_slice(s);
            u64::from_le_bytes(bytes)
        }
    };
    // Bit 7 of a byte is set where that byte is above '9' or below '0'.
    // The first character is the lowest byte and carries only travel up,
    // so the flags are exact up to and including the first non-digit.
    let not_digit = (word.wrapping_add(0x4646_4646_4646_4646) | word.wrapping_sub(ZEROS))
        & 0x8080_8080_8080_8080;
    let count = (not_digit.trailing_zeros() / 8) as usize;
    if count == 0 {
        return (0, 0);
    }
    // Digit values, moved to the top bytes: "123" is parsed as "00000123".
    let v = word.wrapping_sub(ZEROS) << (64 - 8 * count);
    // Pairs, then fours, then all eight (the first digit weighs most).
    let v = v.wrapping_mul(10).wrapping_add(v >> 8);
    let v = (v & 0x0000_00FF_0000_00FF)
        .wrapping_mul(100 + (1_000_000 << 32))
        .wrapping_add(((v >> 16) & 0x0000_00FF_0000_00FF).wrapping_mul(1 + (10_000 << 32)));
    (v >> 32, count)
}

/// Writes scan results as a header-bearing TSV with the R demo's column
/// names: a [`TsvSink`] handed all the rows at once.
pub fn write_scan_tsv(path: &Path, res: &ScanResult) -> Result<(), GwasError> {
    let mut tsv = TsvSink::create(path)?;
    tsv.rows(0, res)?;
    tsv.text.finish()
}

/// The first line of a scan-result TSV.
const SCAN_HEADER: &str = "variant\tbeta\tsigma\ttstat\tpval\n";

/// A scan-result TSV written a block of rows at a time, as each block's
/// round closes (`dash party --out`): each push reaches the file,
/// `durable` fsyncs it and returns its length, `resume` cuts it back to
/// such a length.
pub struct TsvSink {
    path: PathBuf,
    text: TextOut<File>,
}

impl TsvSink {
    /// Creates (or truncates) the file at `path`, starting with the header.
    pub fn create(path: &Path) -> Result<TsvSink, GwasError> {
        let mut text = TextOut::new(File::create(path)?);
        text.buf.extend_from_slice(SCAN_HEADER.as_bytes());
        let path = path.to_path_buf();
        Ok(TsvSink { path, text })
    }

    /// The file an interrupted run was writing, untouched until `resume`
    /// cuts it back; a missing file is an error that names it.
    pub fn reopen(path: &Path) -> Result<TsvSink, CoreError> {
        let file = std::fs::OpenOptions::new().write(true).open(path);
        let file = file.map_err(|e| resume_err(path, format!("cannot be reopened: {e}")))?;
        let (path, text) = (path.to_path_buf(), TextOut::new(file));
        Ok(TsvSink { path, text })
    }

    /// Formats the rows of variants `first..` into the buffer.
    fn rows(&mut self, first: usize, res: &ScanResult) -> Result<(), GwasError> {
        let text = &mut self.text;
        for j in 0..res.len() {
            shortest::push_integer(&mut text.buf, (first + j) as u64);
            for stat in [&res.beta, &res.se, &res.t, &res.p] {
                text.buf.push(b'\t');
                text.cell(stat[j]);
            }
            text.end_row()?;
        }
        Ok(())
    }
}

fn sink_err(path: &Path, e: impl std::fmt::Display) -> CoreError {
    let what = format!("{}: {e}", path.display());
    CoreError::Sink { what }
}

fn resume_err(path: &Path, what: String) -> CoreError {
    let what = format!("result file {} {what}", path.display());
    CoreError::Checkpoint { what }
}

impl RowSink for TsvSink {
    fn push(&mut self, first: usize, rows: &ScanResult) -> Result<(), CoreError> {
        let written = self.rows(first, rows).and_then(|()| self.text.finish());
        written.map_err(|e| sink_err(&self.path, e))
    }

    fn durable(&mut self) -> Result<u64, CoreError> {
        self.text.finish().map_err(|e| sink_err(&self.path, e))?;
        let file = &mut self.text.w;
        let len = file.sync_data().and_then(|()| file.stream_position());
        len.map_err(|e| sink_err(&self.path, e))
    }

    fn resume(&mut self, len: u64) -> Result<(), CoreError> {
        let file = &mut self.text.w;
        let held = file.metadata().map_err(|e| sink_err(&self.path, e))?.len();
        if held < len || len < SCAN_HEADER.len() as u64 {
            let what = format!("holds {held} bytes; the checkpoint recorded {len}");
            return Err(resume_err(&self.path, what));
        }
        let cut = file
            .set_len(len)
            .and_then(|()| file.seek(SeekFrom::Start(len)));
        cut.map(drop).map_err(|e| sink_err(&self.path, e))
    }
}

/// Reads a scan-result TSV written by [`write_scan_tsv`].
pub fn read_scan_tsv(path: &Path, df: usize) -> Result<ScanResult, GwasError> {
    let mut lines = LineReader::new(std::fs::File::open(path)?, CHUNK);
    let mut stats: [Vec<f64>; 4] = Default::default();
    while let Some((lineno, line)) = lines.next_line()? {
        if lineno == 1 {
            if !line.starts_with(b"variant\t") {
                return Err(GwasError::MalformedTable {
                    line: 1,
                    detail: "missing header",
                });
            }
            continue;
        }
        if is_blank(line) {
            continue;
        }
        let tabs = line.iter().filter(|&&b| b == b'\t').count();
        let (Some(first_tab), 4) = (find_byte(line, b'\t'), tabs) else {
            return Err(GwasError::MalformedTable {
                line: lineno,
                detail: "expected 5 columns",
            });
        };
        let mut start = first_tab + 1;
        for (k, stat) in stats.iter_mut().enumerate() {
            let (value, end) = parse_cell(line, start);
            stat.push(value.ok_or_else(|| parse_error(lineno, k + 2, &line[start..end]))?);
            start = end + 1;
        }
    }
    let [beta, se, t, p] = stats;
    let n_degenerate = beta.iter().filter(|b| b.is_nan()).count();
    Ok(ScanResult {
        beta,
        se,
        t,
        p,
        df,
        n_degenerate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_core::model::PartyData;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::io::{BufRead, BufReader, Cursor};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dash_gwas_io_{}_{}", std::process::id(), name));
        p
    }

    /// The reader `read_matrix` replaced, kept word for word as the
    /// oracle: `lines()`, `split('\t')`, `trim`, `str::parse`, rows first.
    fn read_matrix_by_lines(r: impl Read) -> Result<Matrix, GwasError> {
        let reader = BufReader::new(r);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut row = Vec::new();
            for (colno, token) in line.split('\t').enumerate() {
                let v: f64 = token.trim().parse().map_err(|_| GwasError::Parse {
                    line: lineno + 1,
                    column: colno + 1,
                    token: token.to_string(),
                })?;
                row.push(v);
            }
            if let Some(first) = rows.first() {
                if row.len() != first.len() {
                    return Err(GwasError::MalformedTable {
                        line: lineno + 1,
                        detail: "ragged row",
                    });
                }
            }
            rows.push(row);
        }
        if rows.is_empty() {
            return Err(GwasError::MalformedTable {
                line: 0,
                detail: "empty matrix file",
            });
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs).map_err(|_| GwasError::MalformedTable {
            line: 0,
            detail: "inconsistent shape",
        })
    }

    /// A result in a form `==` can compare: the shape and the bits of a
    /// matrix (NaN included), or the error with every field.
    fn outcome(r: Result<Matrix, GwasError>) -> Result<(usize, usize, Vec<u64>), String> {
        match r {
            Ok(m) => Ok((
                m.rows(),
                m.cols(),
                m.as_slice().iter().map(|v| v.to_bits()).collect(),
            )),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    fn read_bytes(text: &[u8], chunk: usize) -> Result<Matrix, GwasError> {
        read_matrix_chunked(Cursor::new(text), chunk)
    }

    fn digits(rng: &mut StdRng, n: usize) -> String {
        (0..n)
            .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
            .collect()
    }

    /// One well-formed cell: every spelling of a number the reader has a
    /// rule for, on and off the exact path.
    fn cell(rng: &mut StdRng) -> String {
        const FIXED: &[&str] = &[
            "inf",
            "-inf",
            "+inf",
            "infinity",
            "NaN",
            "nan",
            "-NaN",
            "+.5",
            "-.5",
            ".5",
            "5.",
            "-5.",
            "+5",
            "9007199254740992",
            "9007199254740993",
            "-900719925474.0992",
            "900719925474.0993",
            "1234567890123456789",
            "12345678901234567890",
            "0.1234567890123456789",
            "18446744073709551615",
            "18446744073709551616",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "0.0000000000000000000009",
            "-0.0",
            "-0",
            "0",
            "000123.4500",
            "007",
            "0000000000000000000000001",
            "1e5",
            "-2.5E-3",
            "1e400",
            "1e-400",
            "4.9e-324",
            "1.7976931348623157e308",
            "123456789012345678901234567890.5",
        ];
        match rng.gen_range(0..8u32) {
            0 => {
                let (int, frac) = (rng.gen_range(1..6), rng.gen_range(0..12));
                let point = if frac > 0 || rng.gen_bool(0.2) {
                    "."
                } else {
                    ""
                };
                format!("{}{point}{}", digits(rng, int), digits(rng, frac))
            }
            // The 10⁻¹⁵ grid values `benchmark/` writes.
            1 | 2 => {
                let sign = if rng.gen_bool(0.5) { "-" } else { "" };
                format!("{sign}{}.{}", rng.gen_range(0..9u8), digits(rng, 15))
            }
            3 => f64::from_bits(rng.gen::<u64>()).to_string(),
            4 => (rng.gen::<f64>() * 4.0 - 2.0).to_string(),
            5 => {
                let pads = [" ", "  ", "\u{a0}", "\u{2003}", "\r"];
                let (l, r) = (rng.gen_range(0..6usize), rng.gen_range(0..6usize));
                let inner = rng.gen_range(-50i32..50) as f64 / 8.0;
                format!(
                    "{}{inner}{}",
                    pads.get(l).copied().unwrap_or(""),
                    pads.get(r).copied().unwrap_or("")
                )
            }
            _ => FIXED[rng.gen_range(0..FIXED.len())].to_string(),
        }
    }

    /// A table of generated cells, and optionally one defect.
    fn table(rng: &mut StdRng, rows: usize, cols: usize, defect: u32) -> String {
        const BAD: &[&str] = &[
            "1.5.2", "--1", "1_0", "0x10", ".", "-", "+", "", "1e", "e5", "1 2", "abc",
        ];
        let mut grid: Vec<Vec<String>> = (0..rows)
            .map(|_| (0..cols).map(|_| cell(rng)).collect())
            .collect();
        let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
        match defect {
            1 => grid[r][c] = BAD[rng.gen_range(0..BAD.len())].to_string(),
            2 => grid[r].push(cell(rng)),
            3 if cols > 1 => {
                grid[r].pop();
            }
            // A trailing tab is one more, empty, cell.
            4 => grid[r].push(String::new()),
            _ => {}
        }
        let newline = if rng.gen_bool(0.3) { "\r\n" } else { "\n" };
        let mut text = String::new();
        for (i, row) in grid.iter().enumerate() {
            while rng.gen_bool(0.15) {
                text.push_str(["", " ", "  \u{a0}", "\r"][rng.gen_range(0..4usize)]);
                text.push_str(newline);
            }
            text.push_str(&row.join("\t"));
            if i + 1 < rows || rng.gen_bool(0.7) {
                text.push_str(newline);
            }
        }
        text
    }

    /// `text` with the first `skip` cells of every row spelled `0`: what a
    /// run resumed at column `skip` reads, since it never parses them.
    fn resumed(text: &str, skip: usize) -> String {
        let zeroed = |line: &str| {
            let (body, newline) = line
                .strip_suffix('\n')
                .map_or((line, ""), |body| (body, "\n"));
            if is_blank(body.as_bytes()) {
                return line.to_string();
            }
            let cells = body.split('\t').enumerate();
            let cells: Vec<&str> = cells.map(|(j, c)| if j < skip { "0" } else { c }).collect();
            cells.join("\t") + newline
        };
        text.split_inclusive('\n').map(zeroed).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(256, "DASH_TSV_CASES"))]

        /// The reader equals the line-based reference on every table it
        /// is specified to agree on: the same matrix bit for bit, or the
        /// same error with the same line, column and token — with chunk
        /// boundaries inside lines and cells, and more rows than a tile.
        #[test]
        fn reader_matches_the_line_based_reference(
            rows in 1usize..=40,
            cols in 1usize..=40,
            defect in 0u32..8,
            chunk in prop_oneof![Just(1usize), Just(7), Just(64), Just(1000), Just(CHUNK)],
            seed in any::<u64>(),
        ) {
            let text = table(&mut StdRng::seed_from_u64(seed), rows, cols, defect);
            prop_assert_eq!(
                outcome(read_bytes(text.as_bytes(), chunk)),
                outcome(read_matrix_by_lines(text.as_bytes())),
                "{:?}", text
            );
        }

        /// Arbitrary bytes end in a matrix or one structured error, never
        /// a panic; where the bytes are text without a tab-only row (the
        /// two specified differences), in the reference's outcome.
        #[test]
        fn arbitrary_bytes_never_panic(
            picks in proptest::collection::vec(any::<u64>(), 0..120),
            chunk in 1usize..40,
        ) {
            const ALPHABET: &[u8] = b"0123456789\t\t\t\n\n\r.-+e \0\xff\xc3\xa9x";
            let bytes: Vec<u8> = picks
                .iter()
                .map(|p| ALPHABET[(p % ALPHABET.len() as u64) as usize])
                .collect();
            let got = outcome(read_bytes(&bytes, chunk));
            let tab_only_row = bytes
                .split(|&b| b == b'\n')
                .any(|l| l.contains(&b'\t') && l.iter().all(|b| b.is_ascii_whitespace()));
            if std::str::from_utf8(&bytes).is_ok() && !tab_only_row {
                prop_assert_eq!(got, outcome(read_matrix_by_lines(bytes.as_slice())), "{:?}", bytes);
            }
        }

        /// A streamed party asked for its blocks in scan order — of 1, 3, 5
        /// or all M columns, from block 0 or, as a resume does, from a
        /// later one — gives the summands of the resident load of the same
        /// bytes bit for bit, with every `N mod 4`, N below and above the
        /// tile height, tiles of 4, 8 and 16 rows, and 1-byte to
        /// 64-KiB reads; then its first block again, which starts over,
        /// and its last, which skips the blocks between. Or it gives the
        /// resident load's error: an empty table's when it opens, then the
        /// `ShapeMismatch` of a row count that is not y's, then the same
        /// parse or table error. A resume parses only its own blocks, so it
        /// fails only if they hold a defect (its reference reads the cells
        /// before them as zeros), but then with the table's first error.
        /// (NaN counts as one value.)
        #[test]
        fn streamed_party_equals_the_resident_load(
            n in 1usize..=40,
            m in prop_oneof![Just(1usize), Just(5), Just(13)],
            k in prop_oneof![Just(0usize), Just(1), Just(3)],
            defect in 0u32..8,
            extra_rows in prop_oneof![Just(0isize), Just(0), Just(0), Just(-1), Just(1), Just(4)],
            chunk in prop_oneof![Just(1usize), Just(7), Just(64), Just(CHUNK)],
            block in prop_oneof![Just(1usize), Just(3), Just(5), Just(usize::MAX)],
            resume_at in prop_oneof![Just(0usize), 1usize..13],
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let y: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
            let c = Matrix::from_fn(n, k, |_, _| rng.gen::<f64>());
            let q = Matrix::from_fn(n, k, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
            let rows = n.saturating_add_signed(extra_rows).max(1);
            let text = table(&mut rng, rows, m, defect);
            let text_of = |e: GwasError| CoreError::Source { what: e.to_string() };
            let x = Cursor::new(text.as_bytes());
            let party = StreamedParty::new(y.clone(), c.clone(), x, chunk)
                .map_err(text_of);
            // A defect in a lone row can change M.
            let m = party.as_ref().map_or(m, |p| p.n_variants());
            let b = block.min(m);
            let first = resume_at % m.div_ceil(b) * b;
            let mut cuts: Vec<_> = (first..m).step_by(b).map(|lo| (lo, (lo + b).min(m))).collect();
            cuts.extend([cuts[0], cuts[cuts.len() - 1]]);

            let mut lines = LineReader::new(Cursor::new(text.as_bytes()), CHUNK);
            let mut counted = 0;
            while let Some((_, line)) = lines.next_line().unwrap() {
                counted += usize::from(!is_blank(line));
            }
            let load = |text: &str| {
                read_matrix(Cursor::new(text))
                    .map_err(text_of)
                    .and_then(|x| PartyData::new(y.clone(), x, c.clone()))
                    .and_then(|data| {
                        cuts.iter()
                            .map(|&(lo, hi)| VariantSummands::local(&y, data.x(), &q, lo, hi))
                            .collect::<Result<Vec<_>, _>>()
                    })
            };
            let resident = if counted != n && counted > 0 {
                let what = "X rows vs y length";
                Err(CoreError::ShapeMismatch { what, expected: n, got: counted })
            } else {
                load(&resumed(&text, first)).or_else(|_| load(&text))
            };
            let streamed = party.and_then(|party| {
                cuts.iter()
                    .map(|&(lo, hi)| party.summands_block(&q, lo, hi))
                    .collect::<Result<Vec<_>, _>>()
            });
            let bits = |r: Result<Vec<VariantSummands>, CoreError>| {
                r.map(|blocks| {
                    blocks
                        .iter()
                        .map(|b| {
                            let cells = b.xy.iter().chain(&b.xx).chain(b.qtx.as_slice());
                            // A NaN's sign and payload are the compiler's
                            // choice of operand order, not the data's.
                            let bits = cells.map(|v| if v.is_nan() { 0 } else { v.to_bits() });
                            (b.lo, b.qtx.shape(), bits.collect::<Vec<_>>())
                        })
                        .collect::<Vec<_>>()
                })
            };
            prop_assert_eq!(
                bits(streamed), bits(resident),
                "n={} rows={} cuts={:?} {:?}", n, rows, cuts, text
            );
        }

        /// `LineReader` cuts lines where `BufRead::lines` cuts them, for
        /// every chunk size.
        #[test]
        fn line_reader_matches_lines(
            picks in proptest::collection::vec(0usize..6, 0..80),
            chunk in 1usize..20,
        ) {
            let text: String = picks.iter().map(|&p| ["a", "bc", "\n", "\r", "\r\n", "\t"][p]).collect();
            let mut lines = LineReader::new(Cursor::new(text.as_bytes()), chunk);
            let mut got = Vec::new();
            while let Some((n, line)) = lines.next_line().unwrap() {
                got.push((n, String::from_utf8(line.to_vec()).unwrap()));
            }
            let want: Vec<(usize, String)> = text
                .as_bytes()
                .lines()
                .enumerate()
                .map(|(i, l)| (i + 1, l.unwrap()))
                .collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(lines.pos() as usize, text.len());
        }
    }

    /// What `str::parse` says a decimal token is, and whether the token is
    /// within the three limits of the exact path.
    fn reference_decimal(token: &str) -> (Option<f64>, bool) {
        let unsigned = token.trim_start_matches(['+', '-']);
        let (int, frac) = unsigned.split_once('.').unwrap_or((unsigned, ""));
        let mantissa = format!("{int}{frac}").trim_start_matches('0').to_string();
        let fits = mantissa.len() <= 19
            && mantissa
                .parse::<u64>()
                .map_or(mantissa.is_empty(), |m| m <= 1 << 53)
            && frac.len() <= 22;
        (token.parse().ok(), fits)
    }

    #[test]
    fn exact_path_equals_str_parse_and_declines_past_its_limits() {
        let mut rng = StdRng::seed_from_u64(17);
        let (mut answered, mut declined) = (0usize, 0usize);
        for _ in 0..200_000 {
            let sign = ["", "", "-", "+"][rng.gen_range(0..4usize)];
            let (int, frac) = (rng.gen_range(0..21usize), rng.gen_range(0..26usize));
            // Mostly short integer parts, so that most mantissas fit.
            let int = if rng.gen_bool(0.7) { int % 3 } else { int };
            let point = if frac > 0 || rng.gen_bool(0.3) {
                "."
            } else {
                ""
            };
            let zeros = "0".repeat(if rng.gen_bool(0.2) {
                rng.gen_range(0..24usize)
            } else {
                0
            });
            let token = format!(
                "{sign}{}{point}{zeros}{}",
                digits(&mut rng, int),
                digits(&mut rng, frac.saturating_sub(zeros.len()))
            );
            let (want, fits) = reference_decimal(&token);
            match exact_decimal(token.as_bytes(), 0) {
                Some((value, end)) => {
                    answered += 1;
                    assert!(fits, "{token} is past a limit but was answered");
                    assert_eq!(end, token.len(), "{token}");
                    assert_eq!(Some(value.to_bits()), want.map(f64::to_bits), "{token}");
                }
                None => {
                    declined += 1;
                    assert!(!fits || want.is_none(), "{token} is exact but was declined");
                }
            }
        }
        assert!(
            answered > 50_000 && declined > 50_000,
            "{answered} / {declined}"
        );
    }

    #[test]
    fn exact_path_limits_hold_on_both_sides() {
        let exact = |t: &str| exact_decimal(t.as_bytes(), 0).map(|(v, _)| v);
        // Mantissa: 2^53 is an f64, 2^53 + 1 is not.
        assert_eq!(exact("9007199254740992"), Some(9007199254740992.0));
        assert_eq!(exact("9007199254740993"), None);
        assert_eq!(exact("-900719925474.0992"), Some(-900719925474.0992));
        assert_eq!(exact("900719925474.0993"), None);
        // Power of ten: 10^22 is an f64, 10^23 is not.
        assert_eq!(exact("0.0000000000000000000007"), Some(7e-22));
        assert_eq!(exact("0.00000000000000000000007"), None);
        // Accumulator: 19 digits fit a u64, 20 may not, zeros in front
        // do not count; what fits a u64 is still past 2^53.
        assert_eq!(exact("1234567890123456789"), None);
        assert_eq!(exact("18446744073709551615"), None);
        assert_eq!(exact("18446744073709551616"), None);
        assert_eq!(exact("99999999999999999999999999"), None);
        assert_eq!(exact("0000000000000000000000001"), Some(1.0));
        assert_eq!(exact("0.0000000000000000000000"), Some(0.0));
        // Shapes: a digit is required, a point is not, nothing may follow.
        for (token, want) in [
            ("5.", 5.0f64),
            (".5", 0.5),
            ("+.5", 0.5),
            ("-0.0", -0.0),
            ("-0", -0.0),
        ] {
            assert_eq!(
                exact(token).map(f64::to_bits),
                Some(want.to_bits()),
                "{token}"
            );
        }
        for token in [
            "", ".", "-", "+", "-.", "+-1", "1.5.2", "1e5", "1 ", " 1", "1\r", "inf", "1_0",
        ] {
            assert_eq!(exact(token), None, "{token:?}");
        }
        // The cell ends at a tab or at the end of the line, wherever it
        // started.
        assert_eq!(exact_decimal(b"x\t-12.25\t7", 2), Some((-12.25, 8)));
        assert_eq!(exact_decimal(b"x\t-12.25\t7", 9), Some((7.0, 10)));
    }

    #[test]
    fn word_steps_equal_byte_steps() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20_000 {
            let len = rng.gen_range(0..20usize);
            let s: Vec<u8> = (0..len)
                .map(|_| b"0123456789\t.\n-e\xff"[rng.gen_range(0..16usize)])
                .collect();
            let count = s.iter().take(8).take_while(|b| b.is_ascii_digit()).count();
            let value = s[..count]
                .iter()
                .fold(0u64, |m, &d| m * 10 + u64::from(d - b'0'));
            assert_eq!(leading_digits(&s), (value, count), "{s:?}");
            let needle = s.first().copied().unwrap_or(b'\t');
            let skip = rng.gen_range(0..=len);
            assert_eq!(
                find_byte(&s[skip..], needle),
                s[skip..].iter().position(|&b| b == needle),
                "{s:?} from {skip}"
            );
        }
    }

    #[test]
    fn matrix_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, -2.5, 3.125][..], &[0.1, 1e-12, -7.0][..]]).unwrap();
        let path = tmp("mat.tsv");
        write_matrix_tsv(&path, &m).unwrap();
        let back = read_matrix_tsv(&path).unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_parse_errors() {
        let bad = "1.0\t2.0\nx\t3.0\n";
        assert!(matches!(
            read_matrix(Cursor::new(bad)),
            Err(GwasError::Parse {
                line: 2,
                column: 1,
                ..
            })
        ));
        let ragged = "1.0\t2.0\n3.0\n";
        assert!(matches!(
            read_matrix(Cursor::new(ragged)),
            Err(GwasError::MalformedTable { .. })
        ));
        assert!(read_matrix(Cursor::new("")).is_err());
        assert!(read_matrix(Cursor::new("\n \n\r\n")).is_err());
    }

    #[test]
    fn a_row_of_empty_cells_is_a_row() {
        // The line-based reader trimmed the tab away and dropped the row.
        assert_eq!(
            outcome(read_matrix(Cursor::new("1\t2\n\t\n3\t4\n"))),
            Err(format!("{:?}", parse_error(2, 1, b"")))
        );
        assert_eq!(
            outcome(read_matrix(Cursor::new("1\t2\n3\t4\n \t\r\n"))),
            Err(format!("{:?}", parse_error(3, 1, b" ")))
        );
        // What stays as it was: CRLF, no final newline, blank lines
        // between rows, padded cells.
        let m = read_matrix(Cursor::new("1\t 2 \r\n\r\n   \n3\t4")).unwrap();
        assert_eq!(
            m,
            Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap()
        );
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_with_a_position() {
        // The line-based reader failed the file with Io(InvalidData).
        assert_eq!(
            outcome(read_matrix(Cursor::new(b"1\t2\n3\t\xff4\xfe\n"))),
            Err(format!(
                "{:?}",
                parse_error(2, 2, "\u{fffd}4\u{fffd}".as_bytes())
            ))
        );
        assert!(matches!(
            read_matrix_by_lines(&b"1\t2\n3\t\xff4\xfe\n"[..]),
            Err(GwasError::Io(_))
        ));
    }

    #[test]
    fn hostile_inputs_end_in_a_value_or_a_structured_error() {
        // 10 MB of digits and no tab is one (infinite) number.
        let m = read_matrix(Cursor::new(vec![b'7'; 10 << 20])).unwrap();
        assert_eq!((m.shape(), m.get(0, 0)), ((1, 1), f64::INFINITY));
        // A first line of a million tabs is a million empty cells.
        assert_eq!(
            outcome(read_matrix(Cursor::new(vec![b'\t'; 1_000_000]))),
            Err(format!("{:?}", parse_error(1, 1, b"")))
        );
        for text in [
            &b"\0"[..],
            b"1\0\t2",
            b"\r",
            b"1\r2\n",
            b"\r\r\n",
            b"1\t2\n\0\n",
        ] {
            assert_eq!(
                outcome(read_matrix(Cursor::new(text))),
                outcome(read_matrix_by_lines(text)),
                "{text:?}"
            );
        }
        // A wide first row and many short ones count as 2·10^10 cells;
        // the destination is sized by the bytes, and the error is the
        // reference's.
        let mut text = "0\t".repeat(200_000).into_bytes();
        text.extend_from_slice(b"0\n");
        text.extend_from_slice("1\n".repeat(100_000).as_bytes());
        assert_eq!(
            outcome(read_matrix(Cursor::new(&text))),
            Err(format!(
                "{:?}",
                GwasError::MalformedTable {
                    line: 2,
                    detail: "ragged row"
                }
            ))
        );
    }

    /// Serves `first` until it is rewound, `second` after.
    struct Changing {
        first: Cursor<&'static [u8]>,
        second: Cursor<&'static [u8]>,
        rewound: bool,
    }

    impl Read for Changing {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.rewound {
                self.second.read(buf)
            } else {
                self.first.read(buf)
            }
        }
    }

    impl Seek for Changing {
        fn seek(&mut self, to: SeekFrom) -> std::io::Result<u64> {
            self.rewound |= to == SeekFrom::Start(0);
            Ok(0)
        }
    }

    #[test]
    fn an_input_that_changes_between_the_passes_is_malformed() {
        let changed = |first: &'static [u8], second: &'static [u8]| {
            read_matrix(Changing {
                first: Cursor::new(first),
                second: Cursor::new(second),
                rewound: false,
            })
        };
        // Grown, shrunk, widened, emptied: never a write out of bounds.
        for (first, second) in [
            (&b"1\t2\n3\t4\n"[..], &b"1\t2\n3\t4\n5\t6\n"[..]),
            (b"1\t2\n3\t4\n", b"1\t2\n"),
            (b"1\t2\n3\t4\n", b"1\t2\t3\n4\t5\t6\n"),
            (b"1\t2\n3\t4\n", b""),
            (
                b"1\n",
                b"1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12\n13\n14\n15\n16\n17\n18\n",
            ),
        ] {
            assert!(
                matches!(
                    changed(first, second),
                    Err(GwasError::MalformedTable { .. })
                ),
                "{first:?} then {second:?}"
            );
        }
        assert!(changed(b"1\t2\n", b"3\t4\n").is_ok());
    }

    #[test]
    fn scan_roundtrip_with_nan() {
        let res = ScanResult {
            beta: vec![0.5, f64::NAN],
            se: vec![0.1, f64::NAN],
            t: vec![5.0, f64::NAN],
            p: vec![1e-6, f64::NAN],
            df: 42,
            n_degenerate: 1,
        };
        let path = tmp("scan.tsv");
        write_scan_tsv(&path, &res).unwrap();
        let back = read_scan_tsv(&path, 42).unwrap();
        assert_eq!(back.beta[0], 0.5);
        assert!(back.beta[1].is_nan());
        assert_eq!(back.n_degenerate, 1);
        assert_eq!(back.df, 42);
        assert_eq!(back.p[0], 1e-6);
        std::fs::remove_file(&path).ok();
    }

    /// The writers as they were before `TextOut`, kept word for word: a
    /// `write!` per cell through `io::Write` and this `Display`.
    struct RoundTrip(f64);

    impl std::fmt::Display for RoundTrip {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            if self.0.is_nan() {
                write!(f, "NaN")
            } else {
                write!(f, "{}", self.0)
            }
        }
    }

    fn write_matrix_by_cells(w: &mut impl Write, m: &Matrix) {
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                if j > 0 {
                    w.write_all(b"\t").unwrap();
                }
                write!(w, "{}", RoundTrip(m.get(i, j))).unwrap();
            }
            w.write_all(b"\n").unwrap();
        }
    }

    fn write_scan_by_cells(w: &mut impl Write, res: &ScanResult) {
        writeln!(w, "variant\tbeta\tsigma\ttstat\tpval").unwrap();
        for j in 0..res.len() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                j,
                RoundTrip(res.beta[j]),
                RoundTrip(res.se[j]),
                RoundTrip(res.t[j]),
                RoundTrip(res.p[j]),
            )
            .unwrap();
        }
    }

    #[test]
    fn writers_give_the_bytes_of_the_per_cell_writers() {
        // Values whose spelling is easy to get wrong, then enough ordinary
        // rows that the text is handed over in more than one piece.
        let awkward = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e-320,
            5e-324,
            1e300,
            -1.7976931348623157e308,
            0.1 + 0.2,
            1e16,
            1e-7,
            123456789.0,
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let rows = 6_000;
        let column = |rng: &mut StdRng| -> Vec<f64> {
            (0..rows)
                .map(|i| match awkward.get(i) {
                    Some(&v) => v,
                    None => rng.gen::<f64>() * 10f64.powi(rng.gen_range(-12..12)),
                })
                .collect()
        };
        let res = ScanResult {
            beta: column(&mut rng),
            se: column(&mut rng),
            t: column(&mut rng),
            p: column(&mut rng),
            df: 92,
            n_degenerate: 0,
        };
        let path = tmp("scan_bytes.tsv");
        write_scan_tsv(&path, &res).unwrap();
        let got = std::fs::read(&path).unwrap();
        let mut want = Vec::new();
        write_scan_by_cells(&mut want, &res);
        assert!(want.len() > 3 * WRITE_CHUNK);
        assert!(got == want, "scan TSV differs from the per-cell writer");
        // Pushed a block at a time, some blocks empty or one row, the
        // file is the same, and each durable length is the file's.
        let mut tsv = TsvSink::create(&path).unwrap();
        let mut lo = 0;
        for hi in [0, 1, 1, 7, 2_000, 2_001, 5_500, rows] {
            tsv.push(lo, &rows_of(&res, lo, hi)).unwrap();
            let len = tsv.durable().unwrap();
            assert_eq!(len, std::fs::metadata(&path).unwrap().len());
            lo = hi;
        }
        let got = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            got == want,
            "blocked scan TSV differs from the per-cell writer"
        );

        // A matrix with rows far longer than a chunk, one column, and none.
        for (r, c) in [(3, 9_000), (rows, 1), (4, 0), (0, 0)] {
            let m = Matrix::from_fn(r, c, |i, j| match awkward.get(i + j) {
                Some(&v) => v,
                None => res.beta[(i * 31 + j) % rows],
            });
            let (mut got, mut want) = (Vec::new(), Vec::new());
            write_matrix(&mut got, &m).unwrap();
            write_matrix_by_cells(&mut want, &m);
            assert!(
                got == want,
                "{r}×{c} matrix differs from the per-cell writer"
            );
        }
    }

    /// Rows `lo..hi` of `res`.
    fn rows_of(res: &ScanResult, lo: usize, hi: usize) -> ScanResult {
        ScanResult {
            beta: res.beta[lo..hi].to_vec(),
            se: res.se[lo..hi].to_vec(),
            t: res.t[lo..hi].to_vec(),
            p: res.p[lo..hi].to_vec(),
            df: res.df,
            n_degenerate: res.beta[lo..hi].iter().filter(|b| b.is_nan()).count(),
        }
    }

    /// A resumed TSV is cut back to the recorded length and continued: a
    /// file longer than that (rows written after the checkpoint) ends
    /// byte-equal to an uninterrupted one; a shorter or missing file, or a
    /// length inside the header, is refused with an error naming it.
    #[test]
    fn a_resumed_tsv_continues_from_the_recorded_length_or_is_refused() {
        let res = ScanResult {
            beta: (0..300).map(|i| i as f64 * 0.25 - 7.0).collect(),
            se: (0..300).map(|i| 1.0 / (i as f64 + 1.0)).collect(),
            t: (0..300).map(|i| (i as f64).sin()).collect(),
            p: (0..300).map(|i| (i as f64 + 0.5) / 301.0).collect(),
            df: 12,
            n_degenerate: 0,
        };
        let (whole, path) = (tmp("resume_whole.tsv"), tmp("resume.tsv"));
        write_scan_tsv(&whole, &res).unwrap();
        let want = std::fs::read(&whole).unwrap();

        let mut tsv = TsvSink::create(&path).unwrap();
        tsv.push(0, &rows_of(&res, 0, 100)).unwrap();
        let len = tsv.durable().unwrap();
        // Rows past the checkpoint reach the file, and half a row more.
        tsv.push(100, &rows_of(&res, 100, 180)).unwrap();
        drop(tsv);
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"180\t0.5\t0.2")
            .unwrap();
        let mut tsv = TsvSink::reopen(&path).unwrap();
        tsv.resume(len).unwrap();
        tsv.push(100, &rows_of(&res, 100, 300)).unwrap();
        assert!(std::fs::read(&path).unwrap() == want);

        let refused = |err: CoreError| match err {
            CoreError::Checkpoint { what } => {
                assert!(what.contains(&*path.to_string_lossy()), "{what}")
            }
            other => panic!("expected a checkpoint error, got {other:?}"),
        };
        let full = want.len() as u64;
        refused(
            TsvSink::reopen(&path)
                .unwrap()
                .resume(full + 1)
                .unwrap_err(),
        );
        refused(TsvSink::reopen(&path).unwrap().resume(3).unwrap_err());
        std::fs::remove_file(&path).ok();
        refused(TsvSink::reopen(&path).err().unwrap());
        std::fs::remove_file(&whole).ok();
    }

    #[test]
    fn scan_header_enforced() {
        let path = tmp("noheader.tsv");
        std::fs::write(&path, "0\t1\t2\t3\t4\n").unwrap();
        assert!(matches!(
            read_scan_tsv(&path, 1),
            Err(GwasError::MalformedTable { line: 1, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_cells_are_matrix_cells() {
        let header = "variant\tbeta\tsigma\ttstat\tpval\n";
        let read = |name: &str, body: &str| {
            let path = tmp(name);
            std::fs::write(&path, format!("{header}{body}")).unwrap();
            let res = read_scan_tsv(&path, 1);
            std::fs::remove_file(&path).ok();
            res.map_err(|e| format!("{e:?}"))
        };
        let ok = read(
            "cells.tsv",
            "0\t 0.5 \t1e-1\t+5.\tNaN\r\n\n1\t-.25\tinf\t0\t1",
        )
        .unwrap();
        assert_eq!(
            (ok.beta, ok.se, ok.t),
            (vec![0.5, -0.25], vec![0.1, f64::INFINITY], vec![5.0, 0.0])
        );
        assert!(ok.p[0].is_nan() && ok.p[1] == 1.0);
        assert_eq!(
            read("badcell.tsv", "0\t1\tx y\t3\t4\n").unwrap_err(),
            format!("{:?}", parse_error(2, 3, b"x y"))
        );
        assert_eq!(
            read("tabs.tsv", "\t\t\t\t\n").unwrap_err(),
            format!("{:?}", parse_error(2, 2, b""))
        );
        for body in ["0\t1\t2\t3\n", "0\t1\t2\t3\t4\t5\n", "7\n"] {
            assert_eq!(
                read("width.tsv", body).unwrap_err(),
                format!(
                    "{:?}",
                    GwasError::MalformedTable {
                        line: 2,
                        detail: "expected 5 columns"
                    }
                )
            );
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_matrix_tsv(Path::new("/nonexistent/dash.tsv")),
            Err(GwasError::Io(_))
        ));
    }
}
