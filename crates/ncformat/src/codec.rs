//! Low-level binary primitives shared by the writer and reader.
//!
//! Everything is little-endian. Strings are length-prefixed UTF-8. The codec
//! is deliberately boring: fixed-width integers and raw element payloads, so
//! hyperslab reads can compute byte offsets arithmetically.

use crate::error::{Error, Result};
use crate::types::{Attribute, Value};
use std::io::{Read, Write};

/// Writes a `u64` little-endian.
pub fn put_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

/// Writes a `u32` little-endian.
pub fn put_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

/// Writes a single byte.
pub fn put_u8<W: Write>(w: &mut W, v: u8) -> Result<()> {
    w.write_all(&[v])?;
    Ok(())
}

/// Writes an `f64` little-endian.
fn put_f64<W: Write>(w: &mut W, v: f64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_str<W: Write>(w: &mut W, s: &str) -> Result<()> {
    put_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// Reads a `u64` little-endian.
pub fn get_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a `u32` little-endian.
pub fn get_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a single byte.
pub fn get_u8<R: Read>(r: &mut R) -> Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Reads an `f64` little-endian.
fn get_f64<R: Read>(r: &mut R) -> Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Reads a length-prefixed UTF-8 string.
///
/// Lengths are sanity-capped to guard against reading garbage headers as
/// multi-gigabyte allocations.
pub fn get_str<R: Read>(r: &mut R) -> Result<String> {
    let len = get_u32(r)? as usize;
    const MAX_STR: usize = 1 << 20;
    if len > MAX_STR {
        return Err(Error::Corrupt(format!("string length {len} exceeds cap")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| Error::Corrupt("non-UTF-8 string".into()))
}

const VAL_TEXT: u8 = 0;
const VAL_F64: u8 = 1;
const VAL_I64: u8 = 2;
const VAL_F64LIST: u8 = 3;

/// Serializes an attribute value.
fn put_value<W: Write>(w: &mut W, v: &Value) -> Result<()> {
    match v {
        Value::Text(s) => {
            put_u8(w, VAL_TEXT)?;
            put_str(w, s)
        }
        Value::F64(x) => {
            put_u8(w, VAL_F64)?;
            put_f64(w, *x)
        }
        Value::I64(x) => {
            put_u8(w, VAL_I64)?;
            put_u64(w, *x as u64)
        }
        Value::F64List(xs) => {
            put_u8(w, VAL_F64LIST)?;
            put_u32(w, xs.len() as u32)?;
            for x in xs {
                put_f64(w, *x)?;
            }
            Ok(())
        }
    }
}

/// Deserializes an attribute value.
fn get_value<R: Read>(r: &mut R) -> Result<Value> {
    match get_u8(r)? {
        VAL_TEXT => Ok(Value::Text(get_str(r)?)),
        VAL_F64 => Ok(Value::F64(get_f64(r)?)),
        VAL_I64 => Ok(Value::I64(get_u64(r)? as i64)),
        VAL_F64LIST => {
            let n = get_u32(r)? as usize;
            const MAX_LIST: usize = 1 << 24;
            if n > MAX_LIST {
                return Err(Error::Corrupt(format!("attribute list length {n} exceeds cap")));
            }
            let mut xs = Vec::with_capacity(n);
            for _ in 0..n {
                xs.push(get_f64(r)?);
            }
            Ok(Value::F64List(xs))
        }
        other => Err(Error::Corrupt(format!("unknown value tag {other}"))),
    }
}

/// Serializes an attribute list.
pub fn put_attributes<W: Write>(w: &mut W, attrs: &[Attribute]) -> Result<()> {
    put_u32(w, attrs.len() as u32)?;
    for a in attrs {
        put_str(w, &a.name)?;
        put_value(w, &a.value)?;
    }
    Ok(())
}

/// Deserializes an attribute list.
pub fn get_attributes<R: Read>(r: &mut R) -> Result<Vec<Attribute>> {
    let n = get_u32(r)? as usize;
    const MAX_ATTRS: usize = 1 << 16;
    if n > MAX_ATTRS {
        return Err(Error::Corrupt(format!("attribute count {n} exceeds cap")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(r)?;
        let value = get_value(r)?;
        out.push(Attribute { name, value });
    }
    Ok(out)
}

/// Decodes little-endian bytes into `f32`s.
pub fn bytes_f32(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

/// Decodes little-endian bytes into `f64`s.
pub fn bytes_f64(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn scalar_roundtrips() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 0xDEADBEEF).unwrap();
        put_u32(&mut buf, 7).unwrap();
        put_u8(&mut buf, 3).unwrap();
        put_f64(&mut buf, -1.25).unwrap();
        put_str(&mut buf, "héllo").unwrap();

        let mut c = Cursor::new(buf);
        assert_eq!(get_u64(&mut c).unwrap(), 0xDEADBEEF);
        assert_eq!(get_u32(&mut c).unwrap(), 7);
        assert_eq!(get_u8(&mut c).unwrap(), 3);
        assert_eq!(get_f64(&mut c).unwrap(), -1.25);
        assert_eq!(get_str(&mut c).unwrap(), "héllo");
    }

    #[test]
    fn value_roundtrips() {
        for v in [
            Value::Text("units".into()),
            Value::F64(2.5),
            Value::I64(-9),
            Value::F64List(vec![1.0, 2.0, 3.0]),
        ] {
            let mut buf = Vec::new();
            put_value(&mut buf, &v).unwrap();
            let got = get_value(&mut Cursor::new(buf)).unwrap();
            assert_eq!(got, v);
        }
    }

    #[test]
    fn attribute_list_roundtrip() {
        let attrs = vec![
            Attribute { name: "units".into(), value: Value::from("K") },
            Attribute { name: "scale".into(), value: Value::from(0.5) },
        ];
        let mut buf = Vec::new();
        put_attributes(&mut buf, &attrs).unwrap();
        assert_eq!(get_attributes(&mut Cursor::new(buf)).unwrap(), attrs);
    }

    #[test]
    fn oversized_string_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX).unwrap();
        assert!(get_str(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn bad_value_tag_is_rejected() {
        let buf = vec![200u8];
        assert!(get_value(&mut Cursor::new(buf)).is_err());
    }
}
