//! Effectiveness reporting (paper §6.1, Figure 14).
//!
//! Figure 14 counts, per benchmark: the total number of fields which hold
//! objects, the number that could ideally be inlined given aliasing
//! constraints (hand-determined — recorded as `@inline_ideal` annotations
//! in our benchmark sources), the number declared inline in the original
//! C++ (`@inline_cxx`), and the number the optimization inlined
//! automatically.

use oi_ir::Program;
use oi_support::Json;

/// Per-field outcome, for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldOutcome {
    /// `Class.field` human-readable name.
    pub name: String,
    /// Whether the optimizer inlined it.
    pub inlined: bool,
    /// Rejection reason when not inlined (empty if inlined or never a
    /// candidate).
    pub reason: String,
    /// Stable kebab-case reason code (empty when inlined).
    pub code: String,
    /// The DESIGN §4 rule number behind `code` (`None` when inlined).
    pub rule: Option<u8>,
    /// Offending site or class (empty when inlined or not pinpointed).
    pub detail: String,
}

/// One step in a field's decision history: what the decision stage
/// concluded about it on one pipeline pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvenanceStep {
    /// Pipeline pass the verdict was reached on (0-based).
    pub pass: usize,
    /// `Class.field` the verdict applies to.
    pub field: String,
    /// `true` for the pass that inlined the field.
    pub inlined: bool,
    /// Reason code (`"inlined"` for accepting steps).
    pub code: String,
    /// The DESIGN §4 rule number (`None` for accepting steps).
    pub rule: Option<u8>,
    /// Offending site or class named by the rule, if any.
    pub detail: String,
}

/// The Figure 14 row for one program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EffectivenessReport {
    /// The degradation-ladder tier the program was compiled at
    /// (`"guarded-full"`, `"reduced-precision"`, `"inlining-off"`), or
    /// `"full"` for direct pipeline runs outside the ladder.
    pub tier: String,
    /// `true` when the analysis exhausted a resource budget and completed
    /// with globally widened contours (sound but coarser).
    pub degraded: bool,
    /// Fields observed to hold objects.
    pub total_object_fields: usize,
    /// Fields annotated `@inline_ideal`.
    pub ideal: usize,
    /// Fields annotated `@inline_cxx`.
    pub cxx: usize,
    /// Fields the optimizer inlined (across all passes).
    pub fields_inlined: usize,
    /// Array allocation sites whose elements were inlined.
    pub array_sites_inlined: usize,
    /// Decisions withdrawn by the soundness firewall (rule 5) after a
    /// failed equivalence or verification check. Zero on the plain
    /// pipeline; the bench observatory gates on it staying zero.
    pub retractions: usize,
    /// Per-field details.
    pub outcomes: Vec<FieldOutcome>,
    /// Full decision history across passes, in the order verdicts were
    /// reached (a field can be rejected on pass 0 and inlined on pass 1).
    pub provenance: Vec<ProvenanceStep>,
}

impl Default for EffectivenessReport {
    fn default() -> Self {
        Self {
            tier: "full".to_string(),
            degraded: false,
            total_object_fields: 0,
            ideal: 0,
            cxx: 0,
            fields_inlined: 0,
            array_sites_inlined: 0,
            retractions: 0,
            outcomes: Vec::new(),
            provenance: Vec::new(),
        }
    }
}

impl FieldOutcome {
    /// The outcome as schema-stable JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("field", self.name.clone().into()),
            ("inlined", self.inlined.into()),
            (
                "code",
                if self.inlined {
                    "inlined".into()
                } else {
                    self.code.clone().into()
                },
            ),
            (
                "rule",
                match self.rule {
                    Some(r) => u64::from(r).into(),
                    None => Json::Null,
                },
            ),
            ("reason", self.reason.clone().into()),
            ("detail", self.detail.clone().into()),
        ])
    }
}

impl ProvenanceStep {
    /// The step as schema-stable JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("pass", self.pass.into()),
            ("field", self.field.clone().into()),
            ("inlined", self.inlined.into()),
            ("code", self.code.clone().into()),
            (
                "rule",
                match self.rule {
                    Some(r) => u64::from(r).into(),
                    None => Json::Null,
                },
            ),
            ("detail", self.detail.clone().into()),
        ])
    }
}

impl EffectivenessReport {
    /// The report as schema-stable JSON: the Figure 14 counters plus
    /// per-field decisions (with reason codes) and the full provenance
    /// chain.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tier", self.tier.clone().into()),
            ("degraded", self.degraded.into()),
            ("total_object_fields", self.total_object_fields.into()),
            ("ideal", self.ideal.into()),
            ("cxx", self.cxx.into()),
            ("fields_inlined", self.fields_inlined.into()),
            ("array_sites_inlined", self.array_sites_inlined.into()),
            ("retractions", self.retractions.into()),
            (
                "decisions",
                Json::Arr(self.outcomes.iter().map(FieldOutcome::to_json).collect()),
            ),
            (
                "provenance",
                Json::Arr(
                    self.provenance
                        .iter()
                        .map(ProvenanceStep::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Counts the annotation-based columns from the program source.
    pub fn count_annotations(program: &Program) -> (usize, usize) {
        let ideal = program.interner.get("inline_ideal");
        let cxx = program.interner.get("inline_cxx");
        let mut ideal_count = 0;
        let mut cxx_count = 0;
        for field in program.fields.iter() {
            if ideal.is_some_and(|a| field.annotations.contains(&a)) {
                ideal_count += 1;
            }
            if cxx.is_some_and(|a| field.annotations.contains(&a)) {
                cxx_count += 1;
            }
        }
        (ideal_count, cxx_count)
    }
}

impl std::fmt::Display for EffectivenessReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "compilation tier      : {}{}",
            self.tier,
            if self.degraded { " (degraded)" } else { "" }
        )?;
        // Field counts only: Figure 14's columns (`GroundTruth`) also
        // count array sites.
        writeln!(f, "fields holding objects: {}", self.total_object_fields)?;
        writeln!(f, "fields @inline_ideal  : {}", self.ideal)?;
        writeln!(f, "fields @inline_cxx    : {}", self.cxx)?;
        writeln!(f, "automatically inlined : {}", self.fields_inlined)?;
        writeln!(f, "array sites inlined   : {}", self.array_sites_inlined)?;
        write!(f, "firewall retractions  : {}", self.retractions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_ir::lower::compile;

    #[test]
    fn annotations_are_counted() {
        let p = compile(
            "class C { field a @inline_ideal @inline_cxx; field b @inline_ideal; field c; }
             fn main() { }",
        )
        .unwrap();
        let (ideal, cxx) = EffectivenessReport::count_annotations(&p);
        assert_eq!(ideal, 2);
        assert_eq!(cxx, 1);
    }

    #[test]
    fn display_renders_all_rows() {
        let r = EffectivenessReport {
            total_object_fields: 5,
            ideal: 4,
            cxx: 2,
            fields_inlined: 4,
            array_sites_inlined: 1,
            retractions: 2,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("compilation tier      : full"));
        assert!(s.contains("fields holding objects: 5"));
        assert!(s.contains("fields @inline_ideal  : 4"));
        assert!(s.contains("fields @inline_cxx    : 2"));
        assert!(s.contains("automatically inlined : 4"));
        assert!(s.contains("array sites inlined   : 1"));
        assert!(s.contains("firewall retractions  : 2"));
    }

    #[test]
    fn degraded_tier_is_marked_in_display_and_json() {
        let r = EffectivenessReport {
            tier: "reduced-precision".to_string(),
            degraded: true,
            ..Default::default()
        };
        assert!(r
            .to_string()
            .contains("compilation tier      : reduced-precision (degraded)"));
        let json = r.to_json().to_string();
        assert!(json.contains("\"tier\":\"reduced-precision\""));
        assert!(json.contains("\"degraded\":true"));
    }
}
