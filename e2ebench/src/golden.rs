//! Golden-table comparator: every grid cell the benchmark computes must
//! equal, byte for byte in compact JSON, the committed snapshot in
//! `tests/golden/` (the same files the repository's golden-table tests
//! pin). The goldens are read, never written.

use mlc_telemetry::json::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Committed snapshots, indexed by cell coordinates.
#[derive(Debug, Default)]
pub struct Golden {
    cells: BTreeMap<String, String>,
}

/// Where the repository keeps its golden tables.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../tests/golden")
}

/// A cell's coordinates as echoed in its payload: kernel, family (sweep
/// cells only) and hierarchy.
fn cell_id(v: &JsonValue) -> String {
    let field = |k: &str| v.get(k).and_then(JsonValue::as_str).unwrap_or("-");
    format!(
        "{}/{}/{}",
        field("kernel"),
        field("family"),
        field("hierarchy")
    )
}

impl Golden {
    /// Load the named files from [`golden_dir`].
    pub fn load(files: &[&str]) -> Result<Self, String> {
        let mut g = Golden::default();
        for file in files {
            let path = golden_dir().join(file);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
            let doc = JsonValue::parse(&text)
                .map_err(|e| format!("golden {} is not JSON: {e:?}", path.display()))?;
            g.add_doc(&doc)
                .map_err(|e| format!("golden {}: {e}", path.display()))?;
        }
        Ok(g)
    }

    fn add_doc(&mut self, doc: &JsonValue) -> Result<(), String> {
        let cells = doc
            .get("cells")
            .and_then(JsonValue::as_array)
            .ok_or("no 'cells' array")?;
        for c in cells {
            self.cells.insert(cell_id(c), c.to_string_compact());
        }
        Ok(())
    }

    /// Check one computed cell payload against its snapshot.
    pub fn check(&self, payload: &JsonValue) -> Result<(), String> {
        let id = cell_id(payload);
        let got = payload.to_string_compact();
        match self.cells.get(&id) {
            None => Err(format!("cell {id} has no golden entry")),
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!(
                "cell {id} differs from its golden entry\n  golden: {want}\n  actual: {got}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_cell(file: &str) -> (Golden, JsonValue) {
        let g = Golden::load(&[file]).unwrap();
        let text = std::fs::read_to_string(golden_dir().join(file)).unwrap();
        let doc = JsonValue::parse(&text).unwrap();
        let cell = doc.get("cells").unwrap().as_array().unwrap()[0].clone();
        (g, cell)
    }

    /// Bump the first miss count found anywhere in `v`.
    fn perturb(v: &mut JsonValue) -> bool {
        match v {
            JsonValue::Object(pairs) => pairs.iter_mut().any(|(k, x)| {
                if k == "misses" {
                    if let JsonValue::Num(n) = x {
                        *n += 1.0;
                        return true;
                    }
                }
                perturb(x)
            }),
            JsonValue::Array(xs) => xs.iter_mut().any(perturb),
            _ => false,
        }
    }

    #[test]
    fn perturbed_cell_fails() {
        for file in ["conflict_ultrasparc_i.json", "layout_tiny_l1l2.json"] {
            let (g, mut cell) = first_cell(file);
            assert_eq!(g.check(&cell), Ok(()));
            assert!(perturb(&mut cell));
            let err = g.check(&cell).unwrap_err();
            assert!(err.contains("differs"), "{err}");
        }
    }

    #[test]
    fn unknown_cell_fails() {
        let (g, cell) = first_cell("group_ultrasparc_i.json");
        let JsonValue::Object(mut pairs) = cell else {
            panic!("cell is an object")
        };
        pairs[0].1 = JsonValue::from("no_such_kernel");
        assert!(g.check(&JsonValue::Object(pairs)).is_err());
    }
}
