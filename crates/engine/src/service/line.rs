//! The one line reader and writer both ends of the wire use: the server
//! loop reading requests and writing replies, and [`super::RemoteService`]
//! writing requests and reading replies.
//!
//! A line comes from outside the process, so two things about it are
//! checked here, before anything is decoded: its length is bounded, and
//! bytes that are not UTF-8 are replaced rather than trusted or fatal.
//! A line goes out as one write: the text and its `\n` together.

use std::borrow::Cow;
use std::io::{self, BufRead, Read, Write};

/// Upper bound on one framed line (request or response).  Batch requests
/// carry whole program corpora, so the bound is generous — but it exists,
/// so a newline-free stream cannot grow the reader's buffer forever.
pub(crate) const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// Read the next line into `buf` (cleared first) and return it without its
/// `\n` or `\r\n`; `None` once the stream has ended.  Like
/// [`BufRead::read_line`], a final line the peer closed without
/// terminating is still returned.
///
/// Bytes are decoded lossily: the protocol layer rejects a line that is
/// not JSON with its own error, so invalid UTF-8 becomes a `malformed`
/// exchange instead of a dead connection.  A line longer than
/// [`MAX_LINE_BYTES`] is an `InvalidData` error naming the limit; the
/// stream is then mid-line and the caller must drop it.
pub(crate) fn read_bounded_line<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<Cow<'a, str>>> {
    buf.clear();
    let read = reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)?;
    if read == 0 {
        return Ok(None);
    }
    let mut line = buf.as_slice();
    if let Some(rest) = line.strip_suffix(b"\n") {
        line = rest.strip_suffix(b"\r").unwrap_or(rest);
    } else if line.len() > MAX_LINE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line exceeds {MAX_LINE_BYTES} bytes without a newline"),
        ));
    }
    Ok(Some(String::from_utf8_lossy(line)))
}

/// Send `line` (which holds no newline: the JSON encoder escapes every
/// control character) with the `\n` that frames it, appended to it, in
/// one `write_all` — on an unbuffered stream, one `write` — then flush.
pub(crate) fn write_line(writer: &mut impl Write, line: &mut String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn next(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> Option<String> {
        read_bounded_line(reader, buf).unwrap().map(Cow::into_owned)
    }

    #[test]
    fn lines_are_reassembled_across_arbitrary_chunk_boundaries() {
        // A two-byte buffer hands the reader every line in pieces, a
        // `\r\n` split down the middle among them.
        let source = &b"first line\r\nsecond\n\nthird partial"[..];
        let mut reader = BufReader::with_capacity(2, source);
        let mut buf = Vec::new();
        assert_eq!(next(&mut reader, &mut buf).as_deref(), Some("first line"));
        assert_eq!(next(&mut reader, &mut buf).as_deref(), Some("second"));
        assert_eq!(next(&mut reader, &mut buf).as_deref(), Some(""));
        assert_eq!(
            next(&mut reader, &mut buf).as_deref(),
            Some("third partial"),
            "an unterminated last line is returned, as read_line does"
        );
        assert_eq!(next(&mut reader, &mut buf), None);
    }

    #[test]
    fn invalid_utf8_is_replaced_not_fatal() {
        let mut reader = &b"\xff\xfe garbage \xff\nok\n"[..];
        let mut buf = Vec::new();
        let line = next(&mut reader, &mut buf).unwrap();
        assert!(line.contains('\u{FFFD}') && line.contains(" garbage "));
        assert_eq!(next(&mut reader, &mut buf).as_deref(), Some("ok"));
    }

    /// A reader that yields `remaining` bytes of `a` without holding them.
    struct Flood {
        remaining: usize,
    }

    impl Read for Flood {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(self.remaining);
            out[..n].fill(b'a');
            self.remaining -= n;
            Ok(n)
        }
    }

    /// A writer that takes everything it is handed and counts the calls.
    #[derive(Default)]
    struct Counting {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_and_its_newline_go_out_in_one_write() {
        // The long line is far past the 8 KiB a standard I/O buffer holds.
        for len in [9, 1 << 20] {
            let mut line = "x".repeat(len);
            let mut sink = Counting::default();
            write_line(&mut sink, &mut line).unwrap();
            assert_eq!(sink.writes, 1, "{len}-byte line");
            assert_eq!(sink.bytes.len(), len + 1);
            assert_eq!(sink.bytes, line.as_bytes(), "the line, newline appended");
            assert!(line.ends_with('\n'));
        }
    }

    #[test]
    fn the_longest_line_is_accepted_and_one_byte_more_is_refused() {
        let mut buf = Vec::new();
        let fits = Flood {
            remaining: MAX_LINE_BYTES,
        };
        let mut reader = BufReader::with_capacity(1 << 20, fits.chain(&b"\nnext\n"[..]));
        assert_eq!(
            read_bounded_line(&mut reader, &mut buf)
                .unwrap()
                .map(|line| line.len()),
            Some(MAX_LINE_BYTES)
        );
        assert_eq!(next(&mut reader, &mut buf).as_deref(), Some("next"));

        let mut reader = BufReader::with_capacity(
            1 << 20,
            Flood {
                remaining: usize::MAX,
            },
        );
        let error = read_bounded_line(&mut reader, &mut buf).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(
            error.to_string().contains(&MAX_LINE_BYTES.to_string()),
            "{error}"
        );
        assert_eq!(
            buf.len(),
            MAX_LINE_BYTES + 1,
            "the reader stops at the limit instead of buffering the flood"
        );
    }
}
