//! Model serialization: save trained parameters, reload into a freshly
//! constructed architecture.
//!
//! The workflow ships *pre-trained* CNNs to the inference tasks (Section
//! 5.4: "inference through the pre-trained CNNs"). Serialization covers the
//! parameter tensors plus an architecture fingerprint (the ordered layer
//! names) so a mismatched reload fails loudly instead of predicting garbage.
//!
//! Format: `TML1` magic, layer-name list, then per-parameter `(len, f32 LE
//! data)` records in [`Sequential::params`] order.

use crate::net::Sequential;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"TML1";

/// Errors from model save/load.
#[derive(Debug)]
pub enum ModelError {
    Io(std::io::Error),
    BadMagic,
    ArchitectureMismatch(String),
    Corrupt(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Io(e) => write!(f, "i/o error: {e}"),
            ModelError::BadMagic => write!(f, "not a tinyml model file"),
            ModelError::ArchitectureMismatch(m) => write!(f, "architecture mismatch: {m}"),
            ModelError::Corrupt(m) => write!(f, "corrupt model file: {m}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

/// Saves the model's parameters and architecture fingerprint to `path`.
pub fn save_model<P: AsRef<Path>>(net: &Sequential, path: P) -> Result<(), ModelError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;

    let names = net.layer_names();
    w.write_all(&(names.len() as u32).to_le_bytes())?;
    for n in &names {
        w.write_all(&(n.len() as u32).to_le_bytes())?;
        w.write_all(n.as_bytes())?;
    }

    let params = net.params();
    w.write_all(&(params.len() as u32).to_le_bytes())?;
    for p in params {
        w.write_all(&(p.len() as u64).to_le_bytes())?;
        for v in &p.data {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, ModelError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, ModelError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Loads parameters from `path` into `net`. The file's layer-name list must
/// match the model's architecture exactly.
pub fn load_model<P: AsRef<Path>>(net: &mut Sequential, path: P) -> Result<(), ModelError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(ModelError::BadMagic);
    }

    let n_names = read_u32(&mut r)? as usize;
    if n_names > 10_000 {
        return Err(ModelError::Corrupt(format!("layer count {n_names} exceeds cap")));
    }
    let mut names = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        let len = read_u32(&mut r)? as usize;
        if len > 256 {
            return Err(ModelError::Corrupt("layer name too long".into()));
        }
        let mut buf = vec![0u8; len];
        r.read_exact(&mut buf)?;
        names.push(String::from_utf8(buf).map_err(|_| ModelError::Corrupt("bad name".into()))?);
    }
    let model_names: Vec<String> = net.layer_names().iter().map(|s| s.to_string()).collect();
    if names != model_names {
        return Err(ModelError::ArchitectureMismatch(format!(
            "file layers {names:?} vs model layers {model_names:?}"
        )));
    }

    let n_params = read_u32(&mut r)? as usize;
    let mut flat = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let len = read_u64(&mut r)? as usize;
        if len > (1 << 30) {
            return Err(ModelError::Corrupt(format!("parameter length {len} exceeds cap")));
        }
        let mut bytes = vec![0u8; len * 4];
        r.read_exact(&mut bytes)?;
        flat.push(
            bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect(),
        );
    }
    net.load_params(&flat).map_err(ModelError::ArchitectureMismatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sigmoid};
    use crate::net::Scratch;
    use crate::tensor::Tensor;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tinyml-serialize");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn cnn(seed: u64) -> Sequential {
        Sequential::new()
            .add(Conv2d::new(2, 4, 3, 1, seed))
            .add(ReLU::new())
            .add(MaxPool2d::new(2))
            .add(Flatten::new())
            .add(Dense::new(4 * 4 * 4, 3, seed + 1))
            .add(Sigmoid::new())
    }

    #[test]
    fn save_load_reproduces_predictions() {
        let path = tmp("cnn.tml");
        let a = cnn(100);
        save_model(&a, &path).unwrap();

        let mut b = cnn(999); // different init
        load_model(&mut b, &path).unwrap();

        let x = Tensor::uniform(&[2, 8, 8], 1.0, 7);
        let (mut sa, mut sb) = (Scratch::default(), Scratch::default());
        assert_eq!(a.infer(&x, &mut sa).data, b.infer(&x, &mut sb).data);
    }

    #[test]
    fn load_rejects_wrong_architecture() {
        let path = tmp("arch.tml");
        let net = cnn(1);
        save_model(&net, &path).unwrap();
        let mut wrong = Sequential::new().add(Dense::new(4, 4, 2));
        assert!(matches!(load_model(&mut wrong, &path), Err(ModelError::ArchitectureMismatch(_))));
    }

    #[test]
    fn load_rejects_non_model_file() {
        let path = tmp("junk.tml");
        std::fs::write(&path, b"not a model").unwrap();
        let mut net = cnn(1);
        assert!(matches!(load_model(&mut net, &path), Err(ModelError::BadMagic)));
    }

    #[test]
    fn load_rejects_truncated_file() {
        let full = tmp("full.tml");
        let net = cnn(1);
        save_model(&net, &full).unwrap();
        let bytes = std::fs::read(&full).unwrap();
        let cut = tmp("cut.tml");
        std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
        let mut target = cnn(2);
        assert!(load_model(&mut target, &cut).is_err());
    }
}
