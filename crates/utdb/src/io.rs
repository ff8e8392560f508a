//! Plain-text dataset I/O.
//!
//! The `.dat` format is the lingua franca of itemset-mining tooling: one
//! transaction per line, whitespace-separated integer item ids. The
//! uncertain extension used here appends the existential probability after
//! a `:` separator; lines without one are read as certain transactions.
//!
//! ```text
//! 1 3 5 : 0.9
//! 2 3 : 0.45
//! 1 2 3
//! ```

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::database::UncertainDatabase;
use crate::item::{Item, ItemDictionary};
use crate::tidset::TidSet;
use crate::transaction::UncertainTransaction;

/// Largest per-item index [`parse_dat`] will build, in 64-bit words.
///
/// The database keeps one tid-set per item id from `0` to the largest id
/// named, each a header plus `⌈rows / 64⌉` bitmap words, so a single
/// line naming item `4294967295` would otherwise ask for hundreds of
/// gigabytes and abort the process. The cap is 1 GiB of index. The
/// paper-scale datasets need about 20k words (T20I10D30KP40: 40 items
/// over 30,000 rows; Mushroom: 119 items over 8,124 rows).
pub const MAX_INDEX_WORDS: u64 = 1 << 27;

/// Words of item index a database of `rows` rows needs when it names
/// item ids up to `max_id`: one tid-set per id, each a header plus
/// `⌈rows / 64⌉` bitmap words. Inputs past [`MAX_INDEX_WORDS`] are
/// refused.
pub fn index_words(max_id: u32, rows: usize) -> u64 {
    let header = (std::mem::size_of::<TidSet>() / 8) as u64;
    (u64::from(max_id) + 1).saturating_mul(rows.div_ceil(64) as u64 + header)
}

/// Errors raised when parsing a `.dat` file.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A malformed line, with its 1-based number and a description.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parse a database from `.dat` text.
///
/// # Examples
///
/// ```
/// let db = utdb::io::parse_dat("1 2 3 : 0.9\n2 3\n").unwrap();
/// assert_eq!(db.len(), 2);
/// assert_eq!(db.transaction(0).probability(), 0.9);
/// assert_eq!(db.transaction(1).probability(), 1.0);
/// ```
pub fn parse_dat(text: &str) -> Result<UncertainDatabase, ParseError> {
    let mut transactions = Vec::new();
    // The largest item id seen and the line that named it first.
    let mut widest: Option<(u32, usize)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (items_part, prob_part) = match line.split_once(':') {
            Some((items, prob)) => (items, Some(prob.trim())),
            None => (line, None),
        };
        let mut items = Vec::new();
        for token in items_part.split_whitespace() {
            let id: u32 = token.parse().map_err(|_| ParseError::Malformed {
                line: line_no,
                reason: format!("invalid item id {token:?}"),
            })?;
            if widest.is_none_or(|(max, _)| id > max) {
                widest = Some((id, line_no));
            }
            items.push(Item(id));
        }
        if items.is_empty() {
            return Err(ParseError::Malformed {
                line: line_no,
                reason: "no items before probability".into(),
            });
        }
        let probability = match prob_part {
            Some(p) => p.parse::<f64>().map_err(|_| ParseError::Malformed {
                line: line_no,
                reason: format!("invalid probability {p:?}"),
            })?,
            None => 1.0,
        };
        if !(probability > 0.0 && probability <= 1.0) {
            return Err(ParseError::Malformed {
                line: line_no,
                reason: format!("probability {probability} outside (0, 1]"),
            });
        }
        transactions.push(UncertainTransaction::new(items, probability));
    }
    if let Some((id, line)) = widest {
        let words = index_words(id, transactions.len());
        if words > MAX_INDEX_WORDS {
            return Err(ParseError::Malformed {
                line,
                reason: format!(
                    "item id {id} over {} rows needs a {words}-word item index \
                     (cap {MAX_INDEX_WORDS})",
                    transactions.len()
                ),
            });
        }
    }
    Ok(UncertainDatabase::new(transactions, ItemDictionary::new()))
}

/// Read a `.dat` file from disk.
pub fn read_dat(path: &Path) -> Result<UncertainDatabase, ParseError> {
    parse_dat(&fs::read_to_string(path)?)
}

/// Serialize a database into `.dat` text; certain transactions omit the
/// probability suffix.
pub fn to_dat(db: &UncertainDatabase) -> String {
    let mut out = String::new();
    for t in db.transactions() {
        let ids: Vec<String> = t.items().iter().map(|i| i.0.to_string()).collect();
        out.push_str(&ids.join(" "));
        if t.probability() < 1.0 {
            let _ = write!(out, " : {}", t.probability());
        }
        out.push('\n');
    }
    out
}

/// Write a database to disk in `.dat` format.
pub fn write_dat(db: &UncertainDatabase, path: &Path) -> io::Result<()> {
    fs::write(path, to_dat(db))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_probabilities_and_defaults() {
        let db = parse_dat("1 2 3 : 0.9\n4 5\n# comment\n\n6 : 0.25\n").unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.transaction(0).probability(), 0.9);
        assert_eq!(db.transaction(1).probability(), 1.0);
        assert_eq!(db.transaction(2).probability(), 0.25);
        assert_eq!(db.transaction(0).items(), &[Item(1), Item(2), Item(3)]);
    }

    #[test]
    fn round_trip_preserves_content() {
        let original = parse_dat("1 2 : 0.5\n3\n10 20 30 : 0.125\n").unwrap();
        let text = to_dat(&original);
        let reparsed = parse_dat(&text).unwrap();
        assert_eq!(original.len(), reparsed.len());
        for (a, b) in original.transactions().iter().zip(reparsed.transactions()) {
            assert_eq!(a.items(), b.items());
            assert!((a.probability() - b.probability()).abs() < 1e-15);
        }
    }

    #[test]
    fn file_round_trip() {
        let db = parse_dat("1 2 : 0.5\n2 3 : 0.75\n").unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("utdb_io_roundtrip_test_{}.dat", std::process::id()));
        write_dat(&db, &path).unwrap();
        let back = read_dat(&path).unwrap();
        assert_eq!(back.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_item() {
        let err = parse_dat("1 x 3\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_bad_probability() {
        assert!(parse_dat("1 2 : nope\n").is_err());
        assert!(parse_dat("1 2 : 0\n").is_err());
        assert!(parse_dat("1 2 : 1.5\n").is_err());
    }

    #[test]
    fn rejects_an_item_id_whose_index_would_not_fit() {
        // Each of these would ask for far more than MAX_INDEX_WORDS.
        let err = parse_dat("4294967295\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 1, .. }),
            "{err}"
        );
        let err = parse_dat("1 2 : 0.5\n# note\n3 200000000 : 0.5\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 3, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("200000000"), "{err}");
        // A wide but affordable id still parses.
        let db = parse_dat("1 100000 : 0.5\n2\n").unwrap();
        assert_eq!(db.num_items(), 100_001);
    }

    #[test]
    fn rejects_probability_without_items() {
        assert!(parse_dat(": 0.5\n").is_err());
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_dat(Path::new("/nonexistent/xyz.dat")).unwrap_err();
        assert!(matches!(err, ParseError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }
}
