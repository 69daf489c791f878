//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message — request or response — is one *frame*: a `u32`
//! big-endian byte length followed by that many body bytes. The first
//! body byte is an opcode (requests) or a status (responses); the rest is
//! opcode-specific. All integers are big-endian; names are UTF-8 with a
//! `u16` length, values are raw bytes with a `u32` length.
//!
//! Requests:
//!
//! ```text
//! 0x01 PUT    u16 name_len · name · u32 value_len · value
//! 0x02 GET    u16 name_len · name
//! 0x03 DELETE u16 name_len · name
//! 0x04 SCRUB  (no payload; runs on every shard)
//! 0x05 STAT   (no payload; served from snapshots, never takes a turn)
//! ```
//!
//! Responses:
//!
//! ```text
//! 0x00 OK        (put/delete acknowledged — the shard has completed it)
//! 0x01 VALUE     u32 len · bytes
//! 0x02 NOT_FOUND
//! 0x03 BUSY      u16 shard · u32 queue_depth   (typed backpressure)
//! 0x04 ERR       u16 len · UTF-8 message
//! 0x05 REPORT    u32 len · UTF-8 JSON (scrub report or stat document)
//! ```
//!
//! `BUSY` is the protocol's backpressure: a shard with its admission cap
//! of ops in flight rejects the request *immediately* instead of parking
//! it unboundedly, and tells the client which shard and how deep. Clients
//! retry with backoff; an open loop generator counts them separately from
//! errors.
//!
//! Frames are capped at [`MAX_FRAME`] so a corrupt or hostile length
//! prefix cannot make the server allocate gigabytes.

use std::io::{self, Read, Write};

/// Hard cap on one frame's body, requests and responses alike (16 MiB —
/// comfortably above the largest value the bundled arrays can hold).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// A client request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Store `value` under `name`, replacing any existing object.
    Put {
        /// Object name: any non-empty UTF-8 whose index record fits a page
        /// (a block less 28 bytes); the store answers `Err` otherwise.
        name: String,
        /// Object bytes.
        value: Vec<u8>,
    },
    /// Fetch the object named `name`.
    Get {
        /// Object name.
        name: String,
    },
    /// Delete the object named `name`.
    Delete {
        /// Object name.
        name: String,
    },
    /// Run a scrub pass over every shard's array.
    Scrub,
    /// Fetch the server's metrics document.
    Stat,
}

/// A server response.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// The operation completed.
    Ok,
    /// The requested object's bytes.
    Value(Vec<u8>),
    /// No object of that name.
    NotFound,
    /// The target shard has `queue_cap` ops admitted; retry later.
    Busy {
        /// Shard that rejected the request.
        shard: u16,
        /// Its queue depth at rejection.
        depth: u32,
    },
    /// The operation failed; human-readable reason.
    Err(String),
    /// A JSON document (scrub report or stat snapshot).
    Report(String),
}

/// A malformed frame body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtoError {
    /// The body ended before a declared field did.
    Truncated,
    /// Unknown request opcode.
    BadOpcode(u8),
    /// Unknown response status.
    BadStatus(u8),
    /// A name field was not valid UTF-8.
    BadUtf8,
    /// Bytes left over after the last field.
    Trailing(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadOpcode(op) => write!(f, "unknown request opcode {op:#04x}"),
            ProtoError::BadStatus(st) => write!(f, "unknown response status {st:#04x}"),
            ProtoError::BadUtf8 => write!(f, "name is not valid UTF-8"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after last field"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Largest body sent with its prefix in one `write`. Under `TCP_NODELAY`
/// every `write` is a segment and a wake-up for the receiver, so a small
/// frame must not be two; past this size one more segment beside the body
/// is noise and the copy into a joined buffer is not.
const COALESCE_MAX: usize = 64 * 1024;

/// Write one frame: length prefix + body, as one `write` for bodies up to
/// 64 KiB and two beyond. A body over [`MAX_FRAME`], which the peer would
/// refuse, is `InvalidInput` before any byte is written.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                body.len()
            ),
        ));
    }
    let len = body.len() as u32;
    if body.len() <= COALESCE_MAX {
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(body);
        w.write_all(&frame)?;
    } else {
        w.write_all(&len.to_be_bytes())?;
        w.write_all(body)?;
    }
    w.flush()
}

/// Read one frame body. Returns `Ok(None)` on end-of-stream at a frame
/// boundary (the peer closed cleanly); an EOF mid-frame is an error. Both
/// ends of a connection call this on a `BufReader` they keep for the
/// connection's lifetime, so the prefix and a small body cost one `read`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    // Distinguish clean close (0 bytes) from a torn prefix by reading the
    // first byte separately.
    match r.read(&mut prefix[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    r.read_exact(&mut prefix[1..])?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Byte-slice cursor for decoding.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.rest.len() < n {
            return Err(ProtoError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn name(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    fn blob(&mut self) -> Result<Vec<u8>, ProtoError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Trailing(self.rest.len()))
        }
    }
}

fn push_name(out: &mut Vec<u8>, name: &str) {
    let len = u16::try_from(name.len()).expect("name length fits u16");
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(name.as_bytes());
}

fn push_blob(out: &mut Vec<u8>, blob: &[u8]) {
    let len = u32::try_from(blob.len()).expect("blob length fits u32");
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(blob);
}

impl Request {
    /// `InvalidInput` if a name is longer than its `u16` length field can
    /// say: the one request [`Request::encode`] cannot serialize.
    pub fn check(&self) -> io::Result<()> {
        match self {
            Request::Put { name, .. } | Request::Get { name } | Request::Delete { name }
                if name.len() > usize::from(u16::MAX) =>
            {
                Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "name of {} bytes exceeds the {}-byte cap",
                        name.len(),
                        u16::MAX
                    ),
                ))
            }
            _ => Ok(()),
        }
    }

    /// Serialize to a frame body. Panics if [`Request::check`] fails.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Put { name, value } => {
                out.push(0x01);
                push_name(&mut out, name);
                push_blob(&mut out, value);
            }
            Request::Get { name } => {
                out.push(0x02);
                push_name(&mut out, name);
            }
            Request::Delete { name } => {
                out.push(0x03);
                push_name(&mut out, name);
            }
            Request::Scrub => out.push(0x04),
            Request::Stat => out.push(0x05),
        }
        out
    }

    /// Parse a frame body.
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        let mut cur = Cursor { rest: body };
        let req = match cur.u8()? {
            0x01 => Request::Put {
                name: cur.name()?,
                value: cur.blob()?,
            },
            0x02 => Request::Get { name: cur.name()? },
            0x03 => Request::Delete { name: cur.name()? },
            0x04 => Request::Scrub,
            0x05 => Request::Stat,
            op => return Err(ProtoError::BadOpcode(op)),
        };
        cur.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialize to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ok => out.push(0x00),
            Response::Value(bytes) => {
                out.push(0x01);
                push_blob(&mut out, bytes);
            }
            Response::NotFound => out.push(0x02),
            Response::Busy { shard, depth } => {
                out.push(0x03);
                out.extend_from_slice(&shard.to_be_bytes());
                out.extend_from_slice(&depth.to_be_bytes());
            }
            Response::Err(msg) => {
                out.push(0x04);
                let msg = truncate_utf8(msg, u16::MAX as usize);
                push_name(&mut out, msg);
            }
            Response::Report(json) => {
                out.push(0x05);
                push_blob(&mut out, json.as_bytes());
            }
        }
        out
    }

    /// Parse a frame body.
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let mut cur = Cursor { rest: body };
        let resp = match cur.u8()? {
            0x00 => Response::Ok,
            0x01 => Response::Value(cur.blob()?),
            0x02 => Response::NotFound,
            0x03 => Response::Busy {
                shard: cur.u16()?,
                depth: cur.u32()?,
            },
            0x04 => Response::Err(cur.name()?),
            0x05 => {
                let raw = cur.blob()?;
                Response::Report(String::from_utf8(raw).map_err(|_| ProtoError::BadUtf8)?)
            }
            st => return Err(ProtoError::BadStatus(st)),
        };
        cur.finish()?;
        Ok(resp)
    }
}

/// Longest prefix of `s` that is at most `max` bytes and still valid
/// UTF-8 (error messages are diagnostics; cutting them beats rejecting
/// the frame).
fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Put {
            name: "obj/α".into(),
            value: (0..=255).collect(),
        });
        roundtrip_req(Request::Get { name: "x".into() });
        roundtrip_req(Request::Delete {
            name: String::new(),
        });
        roundtrip_req(Request::Scrub);
        roundtrip_req(Request::Stat);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Value(vec![0, 255, 7]));
        roundtrip_resp(Response::NotFound);
        roundtrip_resp(Response::Busy {
            shard: 3,
            depth: 4096,
        });
        roundtrip_resp(Response::Err("no space".into()));
        roundtrip_resp(Response::Report("{\"ok\":true}".into()));
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        assert_eq!(Request::decode(&[]), Err(ProtoError::Truncated));
        assert_eq!(Request::decode(&[0x99]), Err(ProtoError::BadOpcode(0x99)));
        // PUT with a name length pointing past the end.
        assert_eq!(
            Request::decode(&[0x01, 0x00, 0x05, b'a']),
            Err(ProtoError::Truncated)
        );
        // Trailing garbage after a well-formed GET.
        let mut body = Request::Get { name: "k".into() }.encode();
        body.push(0xEE);
        assert_eq!(Request::decode(&body), Err(ProtoError::Trailing(1)));
        // Invalid UTF-8 in a name.
        assert_eq!(
            Request::decode(&[0x02, 0x00, 0x02, 0xFF, 0xFE]),
            Err(ProtoError::BadUtf8)
        );
        assert_eq!(Response::decode(&[0x77]), Err(ProtoError::BadStatus(0x77)));
    }

    #[test]
    fn a_name_over_the_u16_field_is_invalid_input() {
        let name = "n".repeat(usize::from(u16::MAX) + 1);
        for req in [
            Request::Put {
                name: name.clone(),
                value: vec![1],
            },
            Request::Get { name: name.clone() },
            Request::Delete { name },
        ] {
            assert_eq!(req.check().unwrap_err().kind(), io::ErrorKind::InvalidInput);
        }
        let longest = Request::Get {
            name: "n".repeat(usize::from(u16::MAX)),
        };
        assert!(longest.check().is_ok());
        roundtrip_req(longest);
    }

    #[test]
    fn an_oversized_frame_is_invalid_input_and_writes_nothing() {
        let mut w = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        let err = write_frame(&mut w, &vec![0u8; MAX_FRAME + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.writes, 0);
        // The cap itself is a legal frame.
        write_frame(&mut w, &vec![0u8; MAX_FRAME]).unwrap();
        assert_eq!(w.bytes.len(), 4 + MAX_FRAME);
    }

    /// A request of kind `kind % 5` built from drawn bytes (names are
    /// made valid UTF-8).
    fn request_of(kind: u8, name: &[u8], value: &[u8]) -> Request {
        let name = String::from_utf8_lossy(name).into_owned();
        match kind % 5 {
            0 => Request::Put {
                name,
                value: value.to_vec(),
            },
            1 => Request::Get { name },
            2 => Request::Delete { name },
            3 => Request::Scrub,
            _ => Request::Stat,
        }
    }

    /// A response of kind `kind % 6` built from drawn values.
    fn response_of(kind: u8, text: &[u8], bytes: &[u8], shard: u16, depth: u32) -> Response {
        let text = String::from_utf8_lossy(text).into_owned();
        match kind % 6 {
            0 => Response::Ok,
            1 => Response::Value(bytes.to_vec()),
            2 => Response::NotFound,
            3 => Response::Busy { shard, depth },
            4 => Response::Err(text),
            _ => Response::Report(text),
        }
    }

    /// Both decoders on `body`: each returns a message or a typed error,
    /// and a message they accept re-encodes to exactly `body` (one
    /// encoding per message, so nothing is silently dropped).
    fn decode_is_total_and_canonical(body: &[u8]) {
        if let Ok(req) = Request::decode(body) {
            assert_eq!(req.encode(), body, "{req:?}");
        }
        if let Ok(resp) = Response::decode(body) {
            assert_eq!(resp.encode(), body, "{resp:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bodies_decode_to_a_message_or_a_typed_error(
            // A first byte near the opcodes, so most bodies reach a field.
            first in 0u8..8,
            rest in prop::collection::vec(any::<u8>(), 0..48),
        ) {
            let mut body = vec![first];
            body.extend_from_slice(&rest);
            decode_is_total_and_canonical(&body);
        }

        #[test]
        fn truncated_and_flipped_encodings_are_typed_errors_or_messages(
            kind in any::<u8>(),
            text in prop::collection::vec(any::<u8>(), 0..24),
            bytes in prop::collection::vec(any::<u8>(), 0..24),
            at in any::<usize>(),
            mask in 1u8..=255,
        ) {
            let shard = u16::from(kind) * 257;
            let depth = at as u32;
            let req = request_of(kind, &text, &bytes).encode();
            let resp = response_of(kind, &text, &bytes, shard, depth).encode();
            // Every field is required and every length is declared, so each
            // strict prefix is short to its own decoder. The other decoder
            // may read it as a message of its own, which must re-encode.
            for cut in 0..req.len() {
                prop_assert_eq!(Request::decode(&req[..cut]), Err(ProtoError::Truncated));
                decode_is_total_and_canonical(&req[..cut]);
            }
            for cut in 0..resp.len() {
                prop_assert_eq!(Response::decode(&resp[..cut]), Err(ProtoError::Truncated));
                decode_is_total_and_canonical(&resp[..cut]);
            }
            for body in [req, resp] {
                let mut flipped = body.clone();
                flipped[at % body.len()] ^= mask;
                decode_is_total_and_canonical(&flipped);
            }
        }

        #[test]
        fn every_valid_message_round_trips(
            kind in any::<u8>(),
            text in prop::collection::vec(any::<u8>(), 0..64),
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            shard in any::<u16>(),
            depth in any::<u32>(),
        ) {
            let req = request_of(kind, &text, &bytes);
            prop_assert_eq!(Request::decode(&req.encode()), Ok(req.clone()));
            let resp = response_of(kind, &text, &bytes, shard, depth);
            prop_assert_eq!(Response::decode(&resp.encode()), Ok(resp.clone()));
        }
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let wire = u32::MAX.to_be_bytes();
        let mut r = io::BufReader::new(&wire[..]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Counts `write` calls, accepting everything offered.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_small_frame_is_one_write_and_a_large_one_two() {
        for (body_len, writes) in [
            (0, 1),
            (1024, 1),
            (COALESCE_MAX, 1),
            (COALESCE_MAX + 1, 2),
            (256 * 1024, 2),
        ] {
            let body: Vec<u8> = (0..body_len).map(|i| (i * 7) as u8).collect();
            let mut w = CountingWriter {
                writes: 0,
                bytes: Vec::new(),
            };
            write_frame(&mut w, &body).unwrap();
            assert_eq!(w.writes, writes, "{body_len}-byte body");
            // Either way the bytes on the wire are prefix + body.
            assert_eq!(read_frame(&mut &w.bytes[..]).unwrap().unwrap(), body);
        }
    }

    /// Hands out `wire` in two `read`s, cut at `cut`.
    struct SplitReader<'a> {
        wire: &'a [u8],
        cut: usize,
        pos: usize,
    }

    impl Read for SplitReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let end = if self.pos < self.cut {
                self.cut
            } else {
                self.wire.len()
            };
            let n = buf.len().min(end - self.pos);
            buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn buffered_reads_keep_frame_boundaries() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first frame").unwrap();
        write_frame(&mut wire, &[0xAB; 300]).unwrap();
        // Two frames delivered in one buffer: the second is not lost to
        // the first's read-ahead, and the end is a clean EOF.
        let mut r = io::BufReader::new(&wire[..]);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first frame");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), [0xAB; 300]);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // The same stream arriving split at every byte boundary — inside
        // a prefix, inside a body, between the frames.
        for cut in 0..=wire.len() {
            let mut r = io::BufReader::new(SplitReader {
                wire: &wire,
                cut,
                pos: 0,
            });
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first frame");
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), [0xAB; 300]);
            assert!(read_frame(&mut r).unwrap().is_none(), "cut at {cut}");
        }
        // A stream that ends inside a frame is still an error.
        let mut r = io::BufReader::new(&wire[..wire.len() - 1]);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first frame");
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn mid_frame_eof_is_an_error_not_a_clean_close() {
        // Length says 10 bytes, stream has 3.
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_be_bytes());
        wire.extend_from_slice(b"abc");
        let mut r = &wire[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn error_messages_truncate_on_char_boundaries() {
        let long = "é".repeat(40_000); // 80 000 bytes of 2-byte chars
        let resp = Response::Err(long);
        let decoded = Response::decode(&resp.encode()).unwrap();
        let Response::Err(msg) = decoded else {
            panic!("expected Err response");
        };
        assert!(msg.len() <= u16::MAX as usize);
        assert!(msg.chars().all(|c| c == 'é'));
    }
}
