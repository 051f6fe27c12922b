//! Wire protocol for the lookup daemon.
//!
//! Framing is length-prefixed: every message on the wire is a `u32`
//! little-endian body length followed by exactly that many body bytes.
//! Bodies are capped at [`MAX_FRAME`] bytes — the largest legitimate
//! message (a hit response carrying a full record) is well under 600
//! bytes, so anything bigger is an attack or a desynchronized peer and
//! the connection is closed rather than resynchronized.
//!
//! Request bodies start with an op byte:
//!
//! * `0x01 LOOKUP` — followed by the 4 big-endian IPv4 octets;
//! * `0x02 GENERATION` — no payload; asks which database generation is
//!   currently live.
//!
//! Response bodies start with a status byte:
//!
//! * `0x00 HIT` — generation `u32` LE, then the encoded record;
//! * `0x01 MISS` — generation `u32` LE;
//! * `0x02 BUSY` — load shed: the worker queue was full at accept;
//! * `0x03 MALFORMED` — length-prefixed reason string; sent before the
//!   server closes a connection whose framing can no longer be trusted,
//!   or inline (connection kept) when the frame was intact but the body
//!   was nonsense;
//! * `0x04 ERROR` — generation `u32` LE plus a reason: the lookup
//!   itself failed (latent image corruption). Never expected in CI.
//! * `0x05 GEN` — generation `u32` LE, record count `u32` LE, and the
//!   database name.
//!
//! The record encoding carries the same fields as an RGDB record
//! (flags, granularity id, optional country/region/city/coordinate
//! fields) but is versioned independently — the daemon re-encodes the
//! decoded record rather than leaking image bytes, so a change to the
//! image layout does not change the wire format.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use routergeo_db::{Granularity, LocationRecord};
use routergeo_geo::{Coordinate, CountryCode};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::Ipv4Addr;

/// Maximum frame body length accepted in either direction.
pub const MAX_FRAME: u32 = 512;

/// Request op: longest-prefix lookup of one IPv4 address.
pub const OP_LOOKUP: u8 = 0x01;
/// Request op: report the live database generation.
pub const OP_GENERATION: u8 = 0x02;

const ST_HIT: u8 = 0x00;
const ST_MISS: u8 = 0x01;
const ST_BUSY: u8 = 0x02;
const ST_MALFORMED: u8 = 0x03;
const ST_ERROR: u8 = 0x04;
const ST_GEN: u8 = 0x05;

/// A parsed request body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Longest-prefix lookup of one address.
    Lookup(Ipv4Addr),
    /// Which generation is live?
    Generation,
}

/// A parsed response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The lookup matched; `generation` served it.
    Hit {
        /// Database generation that answered.
        generation: u32,
        /// The matched record.
        record: LocationRecord,
    },
    /// No prefix covers the address.
    Miss {
        /// Database generation that answered.
        generation: u32,
    },
    /// Load shed at accept: the worker queue was full.
    Busy,
    /// The request could not be parsed.
    Malformed {
        /// Why the server rejected it.
        reason: String,
    },
    /// The lookup failed server-side (latent image corruption).
    ServerError {
        /// Database generation that failed.
        generation: u32,
        /// Failure description.
        reason: String,
    },
    /// Answer to [`Request::Generation`].
    GenerationInfo {
        /// Live generation id.
        generation: u32,
        /// Deduplicated record count in the live image.
        record_count: u32,
        /// Database name from the image header.
        name: String,
    },
}

/// Protocol-level failures, attributed: framing versus body versus I/O.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer announced a body longer than [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// The peer announced a zero-length body.
    EmptyFrame,
    /// The frame was intact but the body did not parse.
    Malformed(&'static str),
    /// Transport failure.
    Io(io::Error),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::FrameTooLarge(n) => {
                write!(
                    f,
                    "frame body of {n} bytes exceeds the {MAX_FRAME}-byte cap"
                )
            }
            ProtoError::EmptyFrame => f.write_str("zero-length frame body"),
            ProtoError::Malformed(why) => write!(f, "malformed body: {why}"),
            ProtoError::Io(err) => write!(f, "i/o: {err}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(err: io::Error) -> ProtoError {
        ProtoError::Io(err)
    }
}

/// Quantize a coordinate component to integer micro-degrees.
#[allow(clippy::cast_possible_truncation)] // bounded below; see waiver
fn micro_deg(deg: f64) -> i32 {
    let scaled = (deg * 1e6).round();
    // Coordinate invariants bound |deg| by 180, so the scaled value stays
    // far inside i32 range and the cast below cannot truncate.
    scaled as i32
}

fn put_str255(out: &mut BytesMut, s: &str) {
    let bytes = s.as_bytes();
    let take = bytes.len().min(255);
    let len = u8::try_from(take).expect("length capped at 255");
    out.put_u8(len);
    out.put_slice(bytes.get(..take).unwrap_or(bytes));
}

fn put_record(out: &mut BytesMut, rec: &LocationRecord) {
    let mut flags = 0u8;
    if rec.country.is_some() {
        flags |= 1;
    }
    if rec.region.is_some() {
        flags |= 2;
    }
    if rec.city.is_some() {
        flags |= 4;
    }
    if rec.coord.is_some() {
        flags |= 8;
    }
    out.put_u8(flags);
    out.put_u8(rec.granularity.id());
    if let Some(cc) = rec.country {
        out.put_slice(&cc.bytes());
    }
    if let Some(region) = &rec.region {
        put_str255(out, region);
    }
    if let Some(city) = &rec.city {
        put_str255(out, city);
    }
    if let Some(coord) = rec.coord {
        out.put_i32_le(micro_deg(coord.lat()));
        out.put_i32_le(micro_deg(coord.lon()));
    }
}

fn get_str255(buf: &mut &[u8]) -> Result<String, ProtoError> {
    if buf.is_empty() {
        return Err(ProtoError::Malformed("string length byte missing"));
    }
    let len = usize::from(buf.get_u8());
    let bytes = buf
        .get(..len)
        .ok_or(ProtoError::Malformed("string bytes truncated"))?;
    let s = std::str::from_utf8(bytes)
        .map_err(|_| ProtoError::Malformed("string is not UTF-8"))?
        .to_string();
    buf.advance(len);
    Ok(s)
}

fn get_record(buf: &mut &[u8]) -> Result<LocationRecord, ProtoError> {
    if buf.len() < 2 {
        return Err(ProtoError::Malformed("record header truncated"));
    }
    let flags = buf.get_u8();
    let granularity = Granularity::from_id(buf.get_u8())
        .ok_or(ProtoError::Malformed("unknown granularity id"))?;
    let country = if flags & 1 != 0 {
        if buf.len() < 2 {
            return Err(ProtoError::Malformed("country code truncated"));
        }
        let a = buf.get_u8();
        let b = buf.get_u8();
        Some(CountryCode::new(a, b).ok_or(ProtoError::Malformed("non-ASCII country code"))?)
    } else {
        None
    };
    let region = if flags & 2 != 0 {
        Some(get_str255(buf)?)
    } else {
        None
    };
    let city = if flags & 4 != 0 {
        Some(get_str255(buf)?)
    } else {
        None
    };
    let coord = if flags & 8 != 0 {
        if buf.len() < 8 {
            return Err(ProtoError::Malformed("coordinate pair truncated"));
        }
        let lat = f64::from(buf.get_i32_le()) / 1e6;
        let lon = f64::from(buf.get_i32_le()) / 1e6;
        Some(
            Coordinate::new(lat, lon)
                .map_err(|_| ProtoError::Malformed("coordinate out of range"))?,
        )
    } else {
        None
    };
    Ok(LocationRecord {
        country,
        region,
        city,
        coord,
        granularity,
    })
}

/// Encode a request body (no length prefix).
pub fn encode_request(req: &Request) -> Bytes {
    let mut out = BytesMut::with_capacity(8);
    match req {
        Request::Lookup(ip) => {
            out.put_u8(OP_LOOKUP);
            out.put_slice(&ip.octets());
        }
        Request::Generation => out.put_u8(OP_GENERATION),
    }
    out.freeze()
}

/// Parse a request body. The caller has already validated framing.
pub fn parse_request(mut body: &[u8]) -> Result<Request, ProtoError> {
    if body.is_empty() {
        return Err(ProtoError::Malformed("empty request body"));
    }
    let op = body.get_u8();
    match op {
        OP_LOOKUP => {
            if body.len() != 4 {
                return Err(ProtoError::Malformed("lookup payload is not 4 octets"));
            }
            Ok(Request::Lookup(Ipv4Addr::new(
                body[0], body[1], body[2], body[3],
            )))
        }
        OP_GENERATION => {
            if !body.is_empty() {
                return Err(ProtoError::Malformed("generation request carries payload"));
            }
            Ok(Request::Generation)
        }
        _ => Err(ProtoError::Malformed("unknown op byte")),
    }
}

/// Encode a response body (no length prefix).
pub fn encode_response(resp: &Response) -> Bytes {
    let mut out = BytesMut::with_capacity(32);
    match resp {
        Response::Hit { generation, record } => {
            out.put_u8(ST_HIT);
            out.put_u32_le(*generation);
            put_record(&mut out, record);
        }
        Response::Miss { generation } => {
            out.put_u8(ST_MISS);
            out.put_u32_le(*generation);
        }
        Response::Busy => out.put_u8(ST_BUSY),
        Response::Malformed { reason } => {
            out.put_u8(ST_MALFORMED);
            put_str255(&mut out, reason);
        }
        Response::ServerError { generation, reason } => {
            out.put_u8(ST_ERROR);
            out.put_u32_le(*generation);
            put_str255(&mut out, reason);
        }
        Response::GenerationInfo {
            generation,
            record_count,
            name,
        } => {
            out.put_u8(ST_GEN);
            out.put_u32_le(*generation);
            out.put_u32_le(*record_count);
            put_str255(&mut out, name);
        }
    }
    out.freeze()
}

/// Parse a response body.
pub fn parse_response(mut body: &[u8]) -> Result<Response, ProtoError> {
    if body.is_empty() {
        return Err(ProtoError::Malformed("empty response body"));
    }
    let status = body.get_u8();
    let gen_u32 = |buf: &mut &[u8]| -> Result<u32, ProtoError> {
        if buf.len() < 4 {
            return Err(ProtoError::Malformed("generation field truncated"));
        }
        Ok(buf.get_u32_le())
    };
    match status {
        ST_HIT => {
            let generation = gen_u32(&mut body)?;
            let record = get_record(&mut body)?;
            if !body.is_empty() {
                return Err(ProtoError::Malformed("trailing bytes after record"));
            }
            Ok(Response::Hit { generation, record })
        }
        ST_MISS => {
            let generation = gen_u32(&mut body)?;
            if !body.is_empty() {
                return Err(ProtoError::Malformed("trailing bytes after miss"));
            }
            Ok(Response::Miss { generation })
        }
        ST_BUSY => {
            if !body.is_empty() {
                return Err(ProtoError::Malformed("trailing bytes after busy"));
            }
            Ok(Response::Busy)
        }
        ST_MALFORMED => Ok(Response::Malformed {
            reason: get_str255(&mut body)?,
        }),
        ST_ERROR => {
            let generation = gen_u32(&mut body)?;
            Ok(Response::ServerError {
                generation,
                reason: get_str255(&mut body)?,
            })
        }
        ST_GEN => {
            let generation = gen_u32(&mut body)?;
            if body.len() < 4 {
                return Err(ProtoError::Malformed("record count truncated"));
            }
            let record_count = body.get_u32_le();
            Ok(Response::GenerationInfo {
                generation,
                record_count,
                name: get_str255(&mut body)?,
            })
        }
        _ => Err(ProtoError::Malformed("unknown status byte")),
    }
}

/// Write one length-prefixed frame as a **single** `write_all` — prefix
/// and body in one segment, so Nagle's algorithm never holds the body
/// hostage to a delayed ACK on the prefix.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len()).expect("frame bodies are capped well under u32::MAX");
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

/// Read one length-prefixed frame body.
///
/// Returns `Ok(None)` on clean EOF **at a frame boundary** — the peer
/// finished and closed. EOF inside a frame, an oversize length, or a
/// zero length are errors; after any of them the stream can no longer
/// be trusted and the caller must close it.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Bytes>, ProtoError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        let n = r.read(
            len_bytes
                .get_mut(filled..)
                .expect("filled < 4 keeps the range in bounds"),
        )?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(ProtoError::Malformed("EOF inside frame length"));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 {
        return Err(ProtoError::EmptyFrame);
    }
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(len));
    }
    let mut body = vec![0u8; usize::try_from(len).expect("MAX_FRAME fits in usize")];
    r.read_exact(&mut body)
        .map_err(|_| ProtoError::Malformed("EOF inside frame body"))?;
    Ok(Some(Bytes::from(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_record() -> LocationRecord {
        LocationRecord {
            country: Some("DE".parse().expect("valid code")),
            region: Some("Hessen".into()),
            city: Some("Frankfurt".into()),
            coord: Some(Coordinate::new(50.110924, 8.682127).expect("valid coordinate")),
            granularity: Granularity::SubBlock,
        }
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Lookup(Ipv4Addr::new(10, 3, 0, 77)),
            Request::Generation,
        ] {
            let body = encode_request(&req);
            assert_eq!(parse_request(&body).expect("roundtrip"), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let cases = vec![
            Response::Hit {
                generation: 7,
                record: full_record(),
            },
            Response::Hit {
                generation: 1,
                record: LocationRecord::empty(),
            },
            Response::Miss { generation: 2 },
            Response::Busy,
            Response::Malformed {
                reason: "unknown op byte".into(),
            },
            Response::ServerError {
                generation: 3,
                reason: "corrupt RGDB image".into(),
            },
            Response::GenerationInfo {
                generation: 4,
                record_count: 128,
                name: "Vendor-A".into(),
            },
        ];
        for resp in cases {
            let body = encode_response(&resp);
            assert!(body.len() <= usize::try_from(MAX_FRAME).expect("cap fits"));
            assert_eq!(parse_response(&body).expect("roundtrip"), resp);
        }
    }

    #[test]
    fn hit_coordinates_quantize_to_micro_degrees() {
        let resp = Response::Hit {
            generation: 1,
            record: full_record(),
        };
        let parsed = parse_response(&encode_response(&resp)).expect("roundtrip");
        let Response::Hit { record, .. } = parsed else {
            panic!("status changed in roundtrip");
        };
        let coord = record.coord.expect("coordinate survives");
        assert!((coord.lat() - 50.110924).abs() < 1e-5);
        assert!((coord.lon() - 8.682127).abs() < 1e-5);
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        assert!(parse_request(&[]).is_err());
        assert!(parse_request(&[0xEE]).is_err(), "unknown op");
        assert!(parse_request(&[OP_LOOKUP, 1, 2]).is_err(), "short payload");
        assert!(
            parse_request(&[OP_LOOKUP, 1, 2, 3, 4, 5]).is_err(),
            "long payload"
        );
        assert!(
            parse_request(&[OP_GENERATION, 0]).is_err(),
            "unexpected payload"
        );
        assert!(parse_response(&[]).is_err());
        assert!(parse_response(&[0xEE]).is_err(), "unknown status");
        assert!(parse_response(&[ST_HIT, 1, 0]).is_err(), "truncated hit");
    }

    #[test]
    fn framing_roundtrip_and_limits() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").expect("write");
        write_frame(&mut wire, b"defg").expect("write");
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut cursor).expect("first frame").as_deref(),
            Some(b"abc".as_slice())
        );
        assert_eq!(
            read_frame(&mut cursor).expect("second frame").as_deref(),
            Some(b"defg".as_slice())
        );
        assert!(read_frame(&mut cursor).expect("clean EOF").is_none());

        // Zero-length and oversize frames are framing violations.
        let mut zero = std::io::Cursor::new(vec![0, 0, 0, 0]);
        assert!(matches!(read_frame(&mut zero), Err(ProtoError::EmptyFrame)));
        let big = (MAX_FRAME + 1).to_le_bytes().to_vec();
        let mut big = std::io::Cursor::new(big);
        assert!(matches!(
            read_frame(&mut big),
            Err(ProtoError::FrameTooLarge(_))
        ));

        // EOF mid-frame is attributed, not a clean close.
        let mut torn = std::io::Cursor::new(vec![8, 0, 0, 0, 1, 2]);
        assert!(read_frame(&mut torn).is_err());
    }
}
