//! Checkpointing: a self-contained binary state-dict format.
//!
//! Models and layers export their parameters into a [`StateDict`]
//! (named tensors), which serializes to a simple little-endian binary
//! format — no external serialization crates required. Restoring into
//! a freshly constructed model of the same configuration reproduces
//! bit-identical outputs (tested).
//!
//! # Example
//!
//! ```
//! use tutel::checkpoint::StateDict;
//! use tutel_tensor::Tensor;
//!
//! let mut sd = StateDict::new();
//! sd.insert("layer.weight", Tensor::ones(&[2, 3]));
//! let bytes = sd.to_bytes();
//! let back = StateDict::from_bytes(&bytes)?;
//! assert_eq!(back.get("layer.weight"), Some(&Tensor::ones(&[2, 3])));
//! # Ok::<(), std::io::Error>(())
//! ```

use std::collections::BTreeMap;
use std::io::{self, Read};

use tutel_tensor::Tensor;

const MAGIC: &[u8; 8] = b"TUTELSD1";

/// An ordered map of named parameter tensors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateDict {
    entries: BTreeMap<String, Tensor>,
}

impl StateDict {
    /// Creates an empty state dict.
    pub fn new() -> Self {
        StateDict::default()
    }

    /// Inserts (or replaces) a named tensor.
    pub fn insert(&mut self, name: &str, tensor: Tensor) {
        self.entries.insert(name.to_string(), tensor);
    }

    /// Looks up a tensor by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Removes and returns a tensor by name.
    pub fn take(&mut self, name: &str) -> Option<Tensor> {
        self.entries.remove(name)
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dict is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, tensor)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Tensor)> {
        self.entries.iter()
    }

    /// Total parameter count across all tensors.
    pub fn num_params(&self) -> usize {
        self.entries.values().map(Tensor::len).sum()
    }

    /// Serializes to the `TUTELSD1` binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (name, tensor) in &self.entries {
            let name_bytes = name.as_bytes();
            out.extend_from_slice(&(name_bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(name_bytes);
            let dims = tensor.dims();
            out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
            for &d in dims {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            for v in tensor.as_slice() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes from the binary format.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic/truncated stream.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        StateDict::read_from(bytes)
    }

    /// Reads the binary format from `r` (pass `&mut file` for files).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic/truncated stream.
    pub fn read_from<R: Read>(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a TUTELSD1 state dict",
            ));
        }
        let count = read_u32(&mut r)? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let name_len = read_u32(&mut r)? as usize;
            if name_len > 1 << 20 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unreasonable name length",
                ));
            }
            let mut name = vec![0u8; name_len];
            r.read_exact(&mut name)?;
            let name = String::from_utf8(name)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 tensor name"))?;
            let rank = read_u32(&mut r)? as usize;
            if rank > 16 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unreasonable tensor rank",
                ));
            }
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                let mut b = [0u8; 8];
                r.read_exact(&mut b)?;
                dims.push(u64::from_le_bytes(b) as usize);
            }
            // Zero dims count as 1 here, so every product the shape
            // will ever form is bounded too, not only the element count.
            let bound = dims
                .iter()
                .try_fold(1usize, |n, &d| n.checked_mul(d.max(1)));
            if bound.is_none_or(|n| n > MAX_ELEMS) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unreasonable tensor size",
                ));
            }
            let len: usize = dims.iter().product();
            // A header alone does not earn a large reservation: past
            // this, the buffer grows only as the payload arrives.
            let mut data = Vec::with_capacity(len.min(1 << 16));
            let mut b = [0u8; 4];
            for _ in 0..len {
                r.read_exact(&mut b)?;
                data.push(f32::from_le_bytes(b));
            }
            let tensor = Tensor::from_vec(data, &dims)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            entries.insert(name, tensor);
        }
        Ok(StateDict { entries })
    }
}

/// The largest tensor a checkpoint may hold, in elements.
const MAX_ELEMS: usize = 1 << 30;

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Error restoring a state dict into a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// A required tensor was absent.
    Missing(String),
    /// A tensor had the wrong shape for the target module.
    ShapeMismatch(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Missing(n) => write!(f, "state dict is missing tensor {n:?}"),
            RestoreError::ShapeMismatch(n) => write!(f, "tensor {n:?} has the wrong shape"),
        }
    }
}

impl std::error::Error for RestoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use tutel_tensor::Rng;

    #[test]
    fn roundtrip_preserves_everything() {
        let mut rng = Rng::seed(1);
        let mut sd = StateDict::new();
        sd.insert("a.weight", rng.normal_tensor(&[3, 4], 0.0, 1.0));
        sd.insert("a.bias", rng.normal_tensor(&[4], 0.0, 1.0));
        sd.insert("scalarish", Tensor::from_vec(vec![7.5], &[1]).unwrap());
        let back = StateDict::from_bytes(&sd.to_bytes()).unwrap();
        assert_eq!(back, sd);
        assert_eq!(back.num_params(), 12 + 4 + 1);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(StateDict::from_bytes(b"NOTMAGIC").is_err());
        let mut sd = StateDict::new();
        sd.insert("x", Tensor::ones(&[8]));
        let bytes = sd.to_bytes();
        assert!(StateDict::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn dims_whose_product_overflows_are_invalid_data() {
        // [2³², 2³²] wraps to 0 elements in a plain `usize` product.
        let mut bytes = MAGIC.to_vec();
        for word in [1u32, 1] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.push(b'x');
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            bytes.extend_from_slice(&(1u64 << 32).to_le_bytes());
        }
        let err = StateDict::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_or_corrupt_headers_fail_without_panicking() {
        let mut rng = Rng::seed(14);
        let mut sd = StateDict::new();
        sd.insert("a.weight", rng.normal_tensor(&[3, 4], 0.0, 1.0));
        sd.insert("b", rng.normal_tensor(&[5], 0.0, 1.0));
        let bytes = sd.to_bytes();
        for cut in 0..bytes.len() {
            assert!(StateDict::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // The header bytes: magic and count, then each tensor's name
        // length, name, rank and dims (its payload follows them).
        let mut header: Vec<usize> = (0..12).collect();
        let mut at = 12;
        for (name, t) in sd.iter() {
            let len = 8 + name.len() + 8 * t.dims().len();
            header.extend(at..at + len);
            at += len + 4 * t.len();
        }
        assert_eq!(at, bytes.len());
        for &i in &header {
            let seeded = 1 + rng.below(255) as u8;
            for flip in (0..8).map(|b| 1u8 << b).chain([0xff, seeded]) {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= flip;
                if let Ok(back) = StateDict::from_bytes(&corrupt) {
                    assert!(back.num_params() <= bytes.len() / 4, "byte {i} ^ {flip:#x}");
                }
            }
        }
    }

    #[test]
    fn empty_dict_roundtrips() {
        let sd = StateDict::new();
        let back = StateDict::from_bytes(&sd.to_bytes()).unwrap();
        assert!(back.is_empty());
    }
}
