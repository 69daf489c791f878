//! Array metadata: a small text file (`meta.txt`) describing how a payload
//! was striped across the disk files. The file is outside input:
//! [`ArrayMeta::load`] checks it against the code and the journal geometry
//! before anything is sized from it.

use dcode_array::{journal_blocks_per_disk, MIN_BLOCK_SIZE};
use dcode_baselines::registry::{build, CodeId};
use dcode_core::layout::CodeLayout;
use std::fmt;
use std::path::Path;

/// Persistent description of one on-disk array.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArrayMeta {
    /// Which code stripes the data.
    pub code: CodeId,
    /// The code's prime parameter.
    pub p: usize,
    /// Element block size in bytes.
    pub block: usize,
    /// Number of stripes.
    pub stripes: usize,
    /// Exact byte length of the stored payload (the tail block is padded).
    pub payload_len: usize,
    /// Blocks per disk reserved past the stripes for the parity-intent
    /// journal region.
    pub journal: usize,
}

/// Errors loading or parsing metadata.
#[derive(Debug)]
pub enum MetaError {
    /// I/O problem reading or writing `meta.txt`.
    Io(std::io::Error),
    /// The file exists but a field is missing or malformed.
    Malformed(String),
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::Io(e) => write!(f, "metadata I/O error: {e}"),
            MetaError::Malformed(what) => write!(f, "malformed meta.txt: {what}"),
        }
    }
}

impl std::error::Error for MetaError {}

impl From<std::io::Error> for MetaError {
    fn from(e: std::io::Error) -> Self {
        MetaError::Io(e)
    }
}

/// What to do about an array without a (matching) journal region.
const NO_JOURNAL: &str = "this array has no usable journal region (written before journaling, \
     or with blocks too small for one): fetch it with the dcode that stored it and re-store";

fn code_by_name(name: &str) -> Option<CodeId> {
    match name.to_ascii_lowercase().as_str() {
        "dcode" | "d-code" => Some(CodeId::DCode),
        "xcode" | "x-code" => Some(CodeId::XCode),
        "rdp" => Some(CodeId::Rdp),
        "hcode" | "h-code" => Some(CodeId::HCode),
        "hdp" => Some(CodeId::Hdp),
        "evenodd" => Some(CodeId::EvenOdd),
        "pcode" | "p-code" => Some(CodeId::PCode),
        _ => None,
    }
}

/// Parse a user-facing code name (`dcode`, `rdp`, `x-code`, …).
pub fn parse_code(name: &str) -> Result<CodeId, String> {
    code_by_name(name).ok_or_else(|| {
        format!("unknown code '{name}' (try dcode, xcode, rdp, hcode, hdp, evenodd, pcode)")
    })
}

impl ArrayMeta {
    /// Serialize to the `meta.txt` format.
    pub fn to_text(&self) -> String {
        format!(
            "code={}\np={}\nblock={}\nstripes={}\npayload_len={}\njournal={}\n",
            self.code.name(),
            self.p,
            self.block,
            self.stripes,
            self.payload_len,
            self.journal
        )
    }

    /// Parse from the `meta.txt` format.
    pub fn from_text(text: &str) -> Result<Self, MetaError> {
        let mut code = None;
        let mut p = None;
        let mut block = None;
        let mut stripes = None;
        let mut payload_len = None;
        let mut journal = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| MetaError::Malformed(format!("line '{line}'")))?;
            let bad = |f: &str| MetaError::Malformed(format!("field '{f}' = '{v}'"));
            match k {
                "code" => {
                    code = Some(code_by_name(v).ok_or_else(|| bad("code"))?);
                }
                "p" => p = Some(v.parse().map_err(|_| bad("p"))?),
                "block" => block = Some(v.parse().map_err(|_| bad("block"))?),
                "stripes" => stripes = Some(v.parse().map_err(|_| bad("stripes"))?),
                "payload_len" => payload_len = Some(v.parse().map_err(|_| bad("payload_len"))?),
                "journal" => journal = Some(v.parse().map_err(|_| bad("journal"))?),
                other => return Err(MetaError::Malformed(format!("unknown field '{other}'"))),
            }
        }
        fn need<T>(o: Option<T>, f: &str) -> Result<T, MetaError> {
            o.ok_or_else(|| MetaError::Malformed(format!("missing '{f}'")))
        }
        Ok(ArrayMeta {
            code: need(code, "code")?,
            p: need(p, "p")?,
            block: need(block, "block")?,
            stripes: need(stripes, "stripes")?,
            payload_len: need(payload_len, "payload_len")?,
            // Absent in files written before journaling existed.
            journal: journal
                .ok_or_else(|| MetaError::Malformed(format!("missing 'journal' — {NO_JOURNAL}")))?,
        })
    }

    /// Check the fields against each other and build the code they name.
    /// After this, every size derived from the metadata — blocks and
    /// bytes per disk file, payload capacity — is known not to overflow.
    fn validate(&self) -> Result<CodeLayout, MetaError> {
        let bad = |what: String| Err(MetaError::Malformed(what));
        let layout = build(self.code, self.p).map_err(|e| {
            MetaError::Malformed(format!("{} at p={}: {e}", self.code.name(), self.p))
        })?;
        if self.block < MIN_BLOCK_SIZE {
            return bad(format!(
                "block = {} is under the {MIN_BLOCK_SIZE}-byte journal minimum — {NO_JOURNAL}",
                self.block
            ));
        }
        let want = journal_blocks_per_disk(&layout, self.block);
        if self.journal != want {
            return bad(format!(
                "journal = {}, but this geometry reserves {want} block(s) — {NO_JOURNAL}",
                self.journal
            ));
        }
        // `store` writes the fewest stripes that hold the payload (one for
        // an empty payload); anything else was not written by it.
        let per_stripe = layout.data_len().checked_mul(self.block);
        let stripes = per_stripe.map(|per| self.payload_len.div_ceil(per).max(1));
        if stripes != Some(self.stripes) {
            return bad(format!(
                "stripes = {} does not hold a payload of {} bytes",
                self.stripes, self.payload_len
            ));
        }
        let disk_bytes = self
            .stripes
            .checked_mul(layout.rows())
            .and_then(|blocks| blocks.checked_add(self.journal))
            .and_then(|blocks| blocks.checked_mul(self.block));
        if disk_bytes.is_none() {
            return bad(format!("stripes = {} overflows a disk file", self.stripes));
        }
        Ok(layout)
    }

    /// Blocks per disk file: the data region plus the journal tail.
    pub fn disk_blocks(&self, layout: &CodeLayout) -> usize {
        self.stripes * layout.rows() + self.journal
    }

    /// Load `<dir>/meta.txt`, validate it, and build its code.
    pub fn load(dir: &Path) -> Result<(Self, CodeLayout), MetaError> {
        let text = std::fs::read_to_string(dir.join("meta.txt"))?;
        let meta = Self::from_text(&text)?;
        let layout = meta.validate()?;
        Ok((meta, layout))
    }

    /// Save to `<dir>/meta.txt`.
    pub fn save(&self, dir: &Path) -> Result<(), MetaError> {
        std::fs::write(dir.join("meta.txt"), self.to_text())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = ArrayMeta {
            code: CodeId::DCode,
            p: 7,
            block: 4096,
            stripes: 3,
            payload_len: 123456,
            journal: 9,
        };
        let parsed = ArrayMeta::from_text(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn validation_accepts_what_store_writes_and_names_each_miss() {
        let layout = build(CodeId::DCode, 7).unwrap();
        let good = ArrayMeta {
            code: CodeId::DCode,
            p: 7,
            block: 64,
            stripes: 3,
            payload_len: 2 * layout.data_len() * 64 + 1,
            journal: journal_blocks_per_disk(&layout, 64),
        };
        assert_eq!(good.validate().unwrap().disks(), 7);
        let empty = ArrayMeta {
            stripes: 1,
            payload_len: 0,
            ..good.clone()
        };
        assert!(empty.validate().is_ok());

        let misses = [
            (
                ArrayMeta {
                    p: 9,
                    ..good.clone()
                },
                "p=9",
            ),
            (
                ArrayMeta {
                    block: 16,
                    ..good.clone()
                },
                "re-store",
            ),
            (
                ArrayMeta {
                    journal: 0,
                    ..good.clone()
                },
                "re-store",
            ),
            (
                ArrayMeta {
                    stripes: 4,
                    ..good.clone()
                },
                "stripes = 4",
            ),
            (
                ArrayMeta {
                    stripes: 0,
                    ..empty
                },
                "stripes = 0",
            ),
            (
                ArrayMeta {
                    payload_len: usize::MAX,
                    ..good.clone()
                },
                "payload",
            ),
        ];
        for (meta, what) in misses {
            let err = meta.validate().unwrap_err().to_string();
            assert!(err.contains(what), "{meta:?}: {err}");
        }
        // Pre-journaling files lack the field: refused, with the way out.
        let err = ArrayMeta::from_text("code=dcode\np=7\nblock=64\nstripes=2\npayload_len=100\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("journal") && err.contains("re-store"), "{err}");
    }

    #[test]
    fn parse_code_aliases() {
        assert_eq!(parse_code("D-Code").unwrap(), CodeId::DCode);
        assert_eq!(parse_code("rdp").unwrap(), CodeId::Rdp);
        assert!(parse_code("raidz").is_err());
    }

    #[test]
    fn malformed_rejected() {
        assert!(ArrayMeta::from_text("code=dcode\np=7\n").is_err());
        assert!(ArrayMeta::from_text("nonsense").is_err());
        assert!(
            ArrayMeta::from_text("code=zzz\np=7\nblock=1\nstripes=1\npayload_len=0\n").is_err()
        );
    }
}
