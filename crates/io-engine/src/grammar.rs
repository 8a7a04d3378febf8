//! The declarative experiment grammar's shared substrate.
//!
//! Two pieces live here because *every* spec consumer needs them and
//! they must not be re-implemented per crate (the hand-enumerated
//! `*_sweep` functions this layer replaces were five copies of the same
//! cross-product loop):
//!
//! * a **mini-TOML reader** ([`TomlDoc`]) covering exactly the subset an
//!   experiment spec file uses — `[section]` / `[[section]]` headers and
//!   `key = value` entries with string/integer/float/boolean scalars and
//!   single-line arrays — parsed without any external crate (this
//!   workspace builds offline);
//! * the **matrix compiler** ([`Matrix`]): experiment name, axes as
//!   `(key, canonical value spellings, name-safe tags)`, `zip` groups
//!   (axes that advance in lockstep, benchpark-style) and `exclude`
//!   clauses. [`Matrix::from_doc`] is the one reader of `[experiment]
//!   name / zip`, `[axes]` and `[[exclude]]`; [`Matrix::cells`] is the one
//!   copy of axis / zip / exclude validation, the enumeration
//!   (declaration order is loop order, the last declared slot varies
//!   fastest, exactly like the nested loops the legacy sweeps wrote by
//!   hand), exclude matching, label joining and collision detection.
//!
//! The grammar has two clients, and what an axis *means* stays with
//! them: `amrproxy::spec` adds the `scaling` key, typed values applied to
//! `CastroSedovConfig` fields and content keys; `macsio --spec` spells
//! axes as command-line flags. A new axis is added in the client (one
//! enum arm and four match arms in `crates/core/src/spec.rs`; nothing at
//! all for a MACSio flag) — never here.

/// A scalar or array value from a spec file.
#[derive(Clone, Debug, PartialEq)]
pub enum TomlValue {
    /// A quoted string.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A single-line array of values.
    Array(Vec<TomlValue>),
}

impl TomlValue {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer (floats with zero fraction qualify).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            TomlValue::Int(v) => Some(v),
            TomlValue::Float(v) if v.fract() == 0.0 => Some(v as i64),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            TomlValue::Int(v) => Some(v as f64),
            TomlValue::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            TomlValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub(crate) fn as_array(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value the way a spec label would spell it (`"x"` →
    /// `x`, `4` → `4`, `2.5` → `2.5`).
    pub fn render(&self) -> String {
        match self {
            TomlValue::Str(s) => s.clone(),
            TomlValue::Int(v) => v.to_string(),
            TomlValue::Float(v) => format!("{v}"),
            TomlValue::Bool(b) => b.to_string(),
            TomlValue::Array(items) => items
                .iter()
                .map(TomlValue::render)
                .collect::<Vec<_>>()
                .join(","),
        }
    }
}

/// One `[name]` or `[[name]]` table, entries in file order.
#[derive(Clone, Debug, PartialEq)]
pub struct TomlSection {
    /// Section name (the part inside the brackets).
    pub name: String,
    /// True for `[[name]]` array-of-tables headers.
    pub array: bool,
    /// `key = value` entries in declaration order (order is meaningful:
    /// the `[axes]` section's entry order is the sweep's loop order).
    pub entries: Vec<(String, TomlValue)>,
}

impl TomlSection {
    /// Looks up an entry by key.
    pub(crate) fn get(&self, key: &str) -> Option<&TomlValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A parsed spec file: sections in file order. Top-level keys before the
/// first header land in an implicit section named `""`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TomlDoc {
    /// All sections, in file order.
    pub sections: Vec<TomlSection>,
}

impl TomlDoc {
    /// Parses the TOML subset. Errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut sections: Vec<TomlSection> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| format!("line {}: {msg}", lineno + 1);
            if let Some(header) = line.strip_prefix("[[") {
                let name = header
                    .strip_suffix("]]")
                    .ok_or_else(|| at(format!("malformed table header '{line}'")))?
                    .trim();
                sections.push(TomlSection {
                    name: name.to_string(),
                    array: true,
                    entries: Vec::new(),
                });
            } else if let Some(header) = line.strip_prefix('[') {
                let name = header
                    .strip_suffix(']')
                    .ok_or_else(|| at(format!("malformed section header '{line}'")))?
                    .trim();
                sections.push(TomlSection {
                    name: name.to_string(),
                    array: false,
                    entries: Vec::new(),
                });
            } else {
                let (key, value) = line
                    .split_once('=')
                    .ok_or_else(|| at(format!("expected 'key = value', got '{line}'")))?;
                let value = parse_value(value.trim()).map_err(&at)?;
                if sections.is_empty() {
                    sections.push(TomlSection {
                        name: String::new(),
                        array: false,
                        entries: Vec::new(),
                    });
                }
                let section = sections.last_mut().expect("section pushed above");
                let key = key.trim().to_string();
                if section.get(&key).is_some() {
                    return Err(at(format!(
                        "duplicate key '{key}' in section [{}]",
                        section.name
                    )));
                }
                section.entries.push((key, value));
            }
        }
        Ok(Self { sections })
    }

    /// The first `[name]` section, if present.
    pub fn section(&self, name: &str) -> Option<&TomlSection> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Every `[name]` / `[[name]]` section, in file order.
    pub(crate) fn all(&self, name: &str) -> Vec<&TomlSection> {
        self.sections.iter().filter(|s| s.name == name).collect()
    }
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str) -> Result<TomlValue, String> {
    let text = text.trim();
    if let Some(body) = text.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array '{text}'"))?;
        let mut items = Vec::new();
        for part in split_array_items(body)? {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            items.push(parse_value(part)?);
        }
        return Ok(TomlValue::Array(items));
    }
    if let Some(body) = text.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string {text}"))?;
        if body.contains('"') {
            return Err(format!("embedded quote in string {text}"));
        }
        return Ok(TomlValue::Str(body.to_string()));
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    if text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<f64>() {
            return Ok(TomlValue::Float(v));
        }
    }
    if let Ok(v) = text.parse::<i64>() {
        return Ok(TomlValue::Int(v));
    }
    Err(format!("cannot parse value '{text}'"))
}

/// Splits an array body on commas that are not inside quotes.
fn split_array_items(body: &str) -> Result<Vec<&str>, String> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            '[' | ']' if !in_str => {
                return Err("nested arrays are not supported".to_string());
            }
            _ => {}
        }
    }
    if in_str {
        return Err(format!("unterminated string in array '{body}'"));
    }
    items.push(&body[start..]);
    Ok(items)
}

/// An experiment matrix in spelled form: the part of a campaign spec
/// every client shares. Clients keep what an axis *means* (typed
/// values, flag names); the matrix keeps what it is called.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    /// Experiment name (`[experiment] name`).
    pub name: String,
    /// Axes as `(key, canonical value spellings, name-safe tags)`.
    /// Declaration order is loop order: later axes vary faster. Excludes
    /// match on the spellings; a cell's label joins its tags.
    pub axes: Vec<(String, Vec<String>, Vec<String>)>,
    /// Zip groups: the named axes advance in lockstep instead of
    /// crossing. A group occupies the loop position of its
    /// earliest-declared member.
    pub zips: Vec<Vec<String>>,
    /// Exclude clauses: a cell whose values match every `(axis, value)`
    /// pair of one clause is dropped.
    pub excludes: Vec<Vec<(String, String)>>,
}

/// One cell of an expanded [`Matrix`].
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixCell {
    /// One value index per axis, in declaration order.
    pub index: Vec<usize>,
    /// The cell's non-empty tags joined by `_`.
    pub label: String,
    /// Canonical `(axis, value)` coordinates, in declaration order.
    pub coords: Vec<(String, String)>,
}

/// Why a [`Matrix`] does not expand into cells.
#[derive(Clone, Debug, PartialEq)]
pub enum MatrixError {
    /// A zip or exclude names an axis the matrix does not declare (or a
    /// client met an axis key it has no meaning for).
    UnknownAxis(String),
    /// An axis is declared twice; the second declaration would silently
    /// overwrite what the first one set.
    DuplicateAxis(String),
    /// Zip group validation failed (one member, unequal lengths,
    /// overlapping groups).
    Zip(String),
    /// An exclude clause spells no declared value of its axis, so it
    /// could never drop a cell.
    UnknownValue {
        /// The clause's axis.
        axis: String,
        /// The value as the clause spells it.
        value: String,
        /// The canonical spellings the axis declares.
        declared: Vec<String>,
    },
    /// Two cells produced the same label.
    LabelCollision {
        /// The clashing label.
        label: String,
        /// `axis=value` coordinates of the first cell.
        first: String,
        /// `axis=value` coordinates of the second cell.
        second: String,
    },
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownAxis(name) => write!(f, "spec references unknown axis '{name}'"),
            Self::DuplicateAxis(name) => write!(f, "axis '{name}' is declared twice"),
            Self::Zip(msg) => write!(f, "zip group error: {msg}"),
            Self::UnknownValue {
                axis,
                value,
                declared,
            } => write!(
                f,
                "exclude {axis} = '{value}' matches no value of that axis (declared: {})",
                declared.join(", ")
            ),
            Self::LabelCollision {
                label,
                first,
                second,
            } => write!(
                f,
                "run label collision: '{label}' is produced by both cell ({first}) and cell \
                 ({second}); rename a base or add a distinguishing axis"
            ),
        }
    }
}

impl std::error::Error for MatrixError {}

impl Matrix {
    /// Reads the matrix half of a spec file: `[experiment] name` (else
    /// `default_name`) and `zip = ["a+b"]`, the `[axes]` arrays and the
    /// `[[exclude]]` tables. Values are kept as the file spells them and
    /// tags start out equal to the values; the client canonicalizes and
    /// flattens both. Every other `[experiment]` entry is handed to
    /// `other`, for the client to interpret or refuse.
    pub fn from_doc(
        doc: &TomlDoc,
        default_name: &str,
        mut other: impl FnMut(&str, &TomlValue) -> Result<(), String>,
    ) -> Result<Self, String> {
        let mut matrix = Self {
            name: default_name.to_string(),
            ..Self::default()
        };
        for (key, value) in doc.section("experiment").iter().flat_map(|s| &s.entries) {
            match key.as_str() {
                "name" => {
                    let name = value.as_str();
                    matrix.name = name.ok_or("experiment.name must be a string")?.to_string();
                }
                "zip" => {
                    let groups = value.as_array();
                    for group in groups.ok_or("experiment.zip must be an array")? {
                        let group = group.as_str().ok_or("zip entries must be strings")?;
                        let members = group.split('+').map(|m| m.trim().to_string());
                        matrix.zips.push(members.collect());
                    }
                }
                _ => other(key, value)?,
            }
        }
        for (key, value) in doc.section("axes").iter().flat_map(|s| &s.entries) {
            let items = value.as_array();
            let items = items.ok_or_else(|| format!("axis '{key}' must be an array"))?;
            if items.is_empty() {
                return Err(format!("axis '{key}' is empty"));
            }
            let values: Vec<String> = items.iter().map(TomlValue::render).collect();
            matrix.axes.push((key.clone(), values.clone(), values));
        }
        for table in doc.all("exclude") {
            let clause = table.entries.iter().map(|(k, v)| (k.clone(), v.render()));
            matrix.excludes.push(clause.collect());
        }
        Ok(matrix)
    }

    /// Expands the matrix: validates axes, zips and excludes, enumerates
    /// the (zipped) cross product in declaration order with the last
    /// slot varying fastest — exactly the nested loops a hand-written
    /// sweep would be — drops excluded cells, joins each cell's tags
    /// into its label and refuses two cells with one label.
    pub fn cells(&self) -> Result<Vec<MatrixCell>, MatrixError> {
        for (i, (key, ..)) in self.axes.iter().enumerate() {
            if self.axes[..i].iter().any(|(k, ..)| k == key) {
                return Err(MatrixError::DuplicateAxis(key.clone()));
            }
        }
        // A clause that cannot match is a spec mistake, not a no-op.
        for (axis, value) in self.excludes.iter().flatten() {
            let declared = &self.axes[self.axis_index(axis)?].1;
            if !declared.contains(value) {
                return Err(MatrixError::UnknownValue {
                    axis: axis.clone(),
                    value: value.clone(),
                    declared: declared.clone(),
                });
            }
        }
        let mut cells: Vec<MatrixCell> = Vec::new();
        for index in self.enumerate()? {
            let picked = || self.axes.iter().zip(&index).map(|(axis, &i)| (axis, i));
            let coords: Vec<(String, String)> = picked()
                .map(|((key, values, _), i)| (key.clone(), values[i].clone()))
                .collect();
            let excluded = |clause: &Vec<(String, String)>| {
                !clause.is_empty() && clause.iter().all(|pair| coords.contains(pair))
            };
            if self.excludes.iter().any(excluded) {
                continue;
            }
            let tags = picked().map(|(axis, i)| axis.2[i].as_str());
            let label = tags.filter(|t| !t.is_empty()).collect::<Vec<_>>().join("_");
            cells.push(MatrixCell {
                index,
                label,
                coords,
            });
        }
        let mut seen = std::collections::HashMap::with_capacity(cells.len());
        for cell in &cells {
            if let Some(first) = seen.insert(cell.label.as_str(), cell) {
                return Err(MatrixError::LabelCollision {
                    label: cell.label.clone(),
                    first: first.coords_string(),
                    second: cell.coords_string(),
                });
            }
        }
        Ok(cells)
    }

    fn axis_index(&self, name: &str) -> Result<usize, MatrixError> {
        let found = self.axes.iter().position(|(key, ..)| key == name);
        found.ok_or_else(|| MatrixError::UnknownAxis(name.to_string()))
    }

    /// Every cell of the (zipped) cross product as one value index per
    /// axis. Errors when a zip names an unknown axis, an axis twice, or
    /// members of unequal lengths — the spec mistakes that silently
    /// corrupt a hand-written sweep.
    fn enumerate(&self) -> Result<Vec<Vec<usize>>, MatrixError> {
        // Resolve each axis to its slot: zipped axes share one.
        let mut zipped = vec![false; self.axes.len()];
        let mut slots: Vec<(Vec<usize>, usize)> = Vec::new(); // (member axes, len)
        for zip in &self.zips {
            if zip.len() < 2 {
                let msg = format!("zip group {zip:?} needs at least two axes");
                return Err(MatrixError::Zip(msg));
            }
            let mut members = Vec::new();
            let mut len = None;
            for name in zip {
                let idx = self.axis_index(name)?;
                if std::mem::replace(&mut zipped[idx], true) {
                    let msg = format!("axis '{name}' appears in two zip groups");
                    return Err(MatrixError::Zip(msg));
                }
                let axis_len = self.axes[idx].1.len();
                match len {
                    None => len = Some(axis_len),
                    Some(l) if l != axis_len => {
                        return Err(MatrixError::Zip(format!(
                            "zip group {zip:?} has unequal lengths ({l} vs {axis_len} for '{name}')"
                        )));
                    }
                    Some(_) => {}
                }
                members.push(idx);
            }
            slots.push((members, len.expect("non-empty zip")));
        }
        for (idx, (_, values, _)) in self.axes.iter().enumerate() {
            if !zipped[idx] {
                slots.push((vec![idx], values.len()));
            }
        }
        // Loop order: slots sorted by their earliest member's position.
        slots.sort_by_key(|(members, _)| members.iter().min().copied());

        let mut cells = Vec::new();
        let mut current = vec![0usize; self.axes.len()];
        fn recurse(
            slots: &[(Vec<usize>, usize)],
            current: &mut Vec<usize>,
            cells: &mut Vec<Vec<usize>>,
        ) {
            let Some(((members, len), inner)) = slots.split_first() else {
                cells.push(current.clone());
                return;
            };
            for k in 0..*len {
                for &axis in members {
                    current[axis] = k;
                }
                recurse(inner, current, cells);
            }
        }
        recurse(&slots, &mut current, &mut cells);
        Ok(cells)
    }
}

impl MatrixCell {
    /// The coordinates as `axis=value, axis=value` — how errors name a
    /// cell.
    pub fn coords_string(&self) -> String {
        let pairs = self.coords.iter().map(|(k, v)| format!("{k}={v}"));
        pairs.collect::<Vec<_>>().join(", ")
    }
}

/// Disambiguates lossy name-safe tags in place: every member of a
/// colliding group gets `_{prefix}{index}` appended, and the pass
/// repeats until the whole set is unique — a single pass is not enough,
/// because a renamed tag can itself collide with a *different* entry's
/// original flattening (e.g. `x`, `x` and a third entry already named
/// `x_s1`). Indices are per-entry, so renamed tags never collide with
/// each other and the fixed point is reached in a few rounds.
pub fn disambiguate_tags(tags: &mut [String], prefix: char) {
    loop {
        let snapshot: Vec<String> = tags.to_vec();
        let mut changed = false;
        for i in 0..tags.len() {
            if snapshot.iter().filter(|t| **t == snapshot[i]).count() > 1 {
                tags[i] = format!("{}_{prefix}{i}", snapshot[i]);
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_arrays() {
        let doc = TomlDoc::parse(
            r#"
            # an experiment
            [experiment]
            name = "smoke"   # trailing comment
            scaling = "strong"
            zip = ["backend+codec"]

            [base]
            n_cell = 64
            cfl = 0.5
            account_only = true

            [axes]
            backend = ["fpp", "agg:4"]
            scale = [2, 4, 8]

            [[exclude]]
            backend = "agg:4"
            "#,
        )
        .unwrap();
        let exp = doc.section("experiment").unwrap();
        assert_eq!(exp.get("name").unwrap().as_str(), Some("smoke"));
        let base = doc.section("base").unwrap();
        assert_eq!(base.get("n_cell").unwrap().as_i64(), Some(64));
        assert_eq!(base.get("cfl").unwrap().as_f64(), Some(0.5));
        assert_eq!(base.get("account_only").unwrap().as_bool(), Some(true));
        let axes = doc.section("axes").unwrap();
        assert_eq!(
            axes.entries
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            vec!["backend", "scale"],
            "entry order is declaration order"
        );
        let scale = axes.get("scale").unwrap().as_array().unwrap();
        assert_eq!(
            scale
                .iter()
                .filter_map(TomlValue::as_i64)
                .collect::<Vec<_>>(),
            [2, 4, 8]
        );
        let ex = doc.all("exclude");
        assert_eq!(ex.len(), 1);
        assert!(ex[0].array);
        assert_eq!(ex[0].get("backend").unwrap().as_str(), Some("agg:4"));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = TomlDoc::parse("[ok]\nkey value_without_equals").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = TomlDoc::parse("x = [1, 2").unwrap_err();
        assert!(err.contains("unterminated array"), "{err}");
        let err = TomlDoc::parse("x = \"unclosed").unwrap_err();
        assert!(err.contains("unterminated string"), "{err}");
        let err = TomlDoc::parse("[s]\na = 1\na = 2").unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
        let err = TomlDoc::parse("x = [[1], [2]]").unwrap_err();
        assert!(err.contains("nested"), "{err}");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = TomlDoc::parse("k = \"a#b\" # real comment").unwrap();
        assert_eq!(
            doc.sections[0].get("k").unwrap().as_str(),
            Some("a#b"),
            "the # inside quotes survives"
        );
    }

    /// A matrix over `axes` of `(key, length)`: value `i` of axis `k` is
    /// spelled and tagged `k{i}`.
    fn matrix(axes: &[(&str, usize)], zips: &[&[&str]]) -> Matrix {
        let owned = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
        Matrix {
            name: "t".into(),
            axes: axes
                .iter()
                .map(|&(key, len)| {
                    let values: Vec<String> = (0..len).map(|i| format!("{key}{i}")).collect();
                    (key.to_string(), values.clone(), values)
                })
                .collect(),
            zips: zips.iter().map(|z| owned(z)).collect(),
            excludes: Vec::new(),
        }
    }

    fn indices(m: &Matrix) -> Vec<Vec<usize>> {
        m.cells().unwrap().into_iter().map(|c| c.index).collect()
    }

    #[test]
    fn cross_product_matches_nested_loops() {
        let m = matrix(&[("b", 2), ("c", 3)], &[]);
        // b outermost, c fastest — the legacy sweep loop order.
        assert_eq!(
            indices(&m),
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2],
            ]
        );
        let last = m.cells().unwrap().pop().unwrap();
        assert_eq!(last.label, "b1_c2");
        assert_eq!(last.coords_string(), "b=b1, c=c2");
    }

    #[test]
    fn zip_advances_members_in_lockstep() {
        let m = matrix(&[("a", 2), ("b", 3), ("c", 2)], &[&["a", "c"]]);
        // The a+c zip occupies a's (outermost) slot; b stays inner.
        assert_eq!(
            indices(&m),
            vec![
                vec![0, 0, 0],
                vec![0, 1, 0],
                vec![0, 2, 0],
                vec![1, 0, 1],
                vec![1, 1, 1],
                vec![1, 2, 1],
            ]
        );
    }

    #[test]
    fn zip_validation_catches_spec_mistakes() {
        let zip_err = |axes: &[(&str, usize)], zips: &[&[&str]]| match matrix(axes, zips).cells() {
            Err(MatrixError::Zip(msg)) => msg,
            other => panic!("expected a zip error, got {other:?}"),
        };
        let err = zip_err(&[("a", 2), ("b", 3)], &[&["a", "b"]]);
        assert!(err.contains("unequal lengths"), "{err}");
        let err = zip_err(&[("a", 2), ("b", 2), ("c", 2)], &[&["a", "b"], &["b", "c"]]);
        assert!(err.contains("two zip groups"), "{err}");
        let err = zip_err(&[("a", 2)], &[&["a"]]);
        assert!(err.contains("at least two"), "{err}");
        assert_eq!(
            matrix(&[("a", 2)], &[&["a", "ghost"]]).cells().unwrap_err(),
            MatrixError::UnknownAxis("ghost".into())
        );
    }

    #[test]
    fn empty_shape_is_one_cell() {
        let cells = matrix(&[], &[]).cells().unwrap();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].index.is_empty() && cells[0].label.is_empty());
    }

    #[test]
    fn excludes_match_canonical_spellings_and_refuse_what_cannot_match() {
        let mut m = matrix(&[("a", 2), ("b", 2)], &[]);
        m.excludes = vec![
            vec![("a".into(), "a1".into()), ("b".into(), "b0".into())],
            Vec::new(), // an empty table drops nothing
        ];
        assert_eq!(indices(&m), vec![vec![0, 0], vec![0, 1], vec![1, 1]]);
        // The tag is not the spelling: say so, and say what is.
        m.axes[0].2 = vec!["x".into(), "y".into()];
        m.excludes = vec![vec![("a".into(), "y".into())]];
        let err = m.cells().unwrap_err();
        assert_eq!(
            err,
            MatrixError::UnknownValue {
                axis: "a".into(),
                value: "y".into(),
                declared: vec!["a0".into(), "a1".into()],
            }
        );
        assert!(err.to_string().contains("declared: a0, a1"), "{err}");
        m.excludes = vec![vec![("ghost".into(), "a0".into())]];
        assert_eq!(
            m.cells().unwrap_err(),
            MatrixError::UnknownAxis("ghost".into())
        );
    }

    #[test]
    fn duplicate_axes_and_colliding_labels_are_refused() {
        let twice = matrix(&[("a", 2), ("b", 2), ("a", 3)], &[]);
        assert_eq!(
            twice.cells().unwrap_err(),
            MatrixError::DuplicateAxis("a".into())
        );
        // Lossy tags: `x` + `y_z` and `x_y` + `z` join to one label.
        let mut m = matrix(&[("a", 2), ("b", 2)], &[&["a", "b"]]);
        m.axes[0].2 = vec!["x".into(), "x_y".into()];
        m.axes[1].2 = vec!["y_z".into(), "z".into()];
        assert_eq!(
            m.cells().unwrap_err(),
            MatrixError::LabelCollision {
                label: "x_y_z".into(),
                first: "a=a0, b=b0".into(),
                second: "a=a1, b=b1".into(),
            }
        );
        // Empty tags are skipped, not joined.
        m.axes[1].2 = vec![String::new(), "z".into()];
        let labels: Vec<String> = m.cells().unwrap().into_iter().map(|c| c.label).collect();
        assert_eq!(labels, ["x", "x_y_z"]);
    }

    #[test]
    fn from_doc_reads_the_matrix_sections_and_returns_the_rest() {
        let doc = TomlDoc::parse(
            r#"
            [experiment]
            name = "smoke"
            scaling = "weak"
            zip = ["backend + codec"]
            [axes]
            backend = ["fpp", "agg:4"]
            codec = ["identity", "rle:2.5"]
            scale = [2, 4]
            [[exclude]]
            scale = 4
            backend = "agg:4"
            "#,
        )
        .unwrap();
        let mut unread = Vec::new();
        let m = Matrix::from_doc(&doc, "fallback", |key, _| {
            unread.push(key.to_string());
            Ok(())
        })
        .unwrap();
        assert_eq!(m.name, "smoke");
        assert_eq!(m.zips, vec![vec!["backend".to_string(), "codec".into()]]);
        assert_eq!(m.axes[2].0, "scale");
        assert_eq!(m.axes[2].1, ["2", "4"]);
        assert_eq!(m.axes[1].1, m.axes[1].2, "tags start as the spellings");
        let labels: Vec<String> = m.cells().unwrap().into_iter().map(|c| c.label).collect();
        assert_eq!(
            labels,
            ["fpp_identity_2", "fpp_identity_4", "agg:4_rle:2.5_2"]
        );
        assert_eq!(unread, ["scaling"]);
        let refused = Matrix::from_doc(&doc, "fallback", |key, _| Err(format!("no '{key}'")));
        assert_eq!(refused.unwrap_err(), "no 'scaling'");

        let bare = TomlDoc::parse("[axes]\nx = [1]").unwrap();
        assert_eq!(
            Matrix::from_doc(&bare, "fallback", |_, _| Ok(()))
                .unwrap()
                .name,
            "fallback"
        );
        for (text, want) in [
            ("[experiment]\nname = 3", "name must be a string"),
            ("[experiment]\nzip = \"a+b\"", "zip must be an array"),
            ("[experiment]\nzip = [1]", "zip entries must be strings"),
            ("[axes]\nx = 3", "axis 'x' must be an array"),
            ("[axes]\nx = []", "axis 'x' is empty"),
        ] {
            let err =
                Matrix::from_doc(&TomlDoc::parse(text).unwrap(), "f", |_, _| Ok(())).unwrap_err();
            assert!(err.contains(want), "{text}: {err}");
        }
    }

    #[test]
    fn disambiguation_reaches_a_fixed_point() {
        let mut tags = vec!["x".to_string(), "x".to_string(), "x_s1".to_string()];
        disambiguate_tags(&mut tags, 's');
        let mut sorted = tags.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "{tags:?}");
    }
}
