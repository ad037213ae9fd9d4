//! The result-cache key: *what makes two submissions the same job*.
//!
//! Two submissions share a key exactly when the worker would read the
//! same things for both, so a completed run of one is, byte for byte,
//! the answer for the other. The key therefore hashes exactly what the
//! worker reads, and nothing else:
//!
//! - the **input**: a suite job's entry name; a file job's shipped
//!   [`InputFormat`](proto::InputFormat) and file text, verbatim. The
//!   path is not read by the worker and is not hashed, so the same text
//!   under another path is the same job; a renamed signal or a reordered
//!   port is another, since both show in the result's names and order;
//! - the **library digest** ([`library::Library::digest`]): the same
//!   circuit against a different cell library is a different job;
//! - the resolved deterministic **configuration**: seed, vectors, verify
//!   policy, engine pipeline, and partition count.
//!
//! Deliberately excluded: `deadline_ms` and `work_limit`. Budgets bound
//! *when a run is cut short*, not what a completed run produces — and
//! the gateway only caches `done` outcomes, where the budget never
//! tripped, so a `done` result equals the unlimited run of the same
//! spec under any budget. Also excluded: job id, priority, checkpoint
//! and resume paths (a resumed run converges to the uninterrupted
//! result), and the presentation flags `netlist`/`progress`.

use gdo::snapshot::fnv1a64;
use library::Library;
use proto::{ShippedInput, SubmitRequest};

/// Computes the cache key of one admitted job: `spec` with the gateway's
/// defaults resolved, as it ships in an `assign`, and `input`, the file
/// text shipped beside it (`None` for a suite job).
#[must_use]
pub fn cache_key(lib: &Library, spec: &SubmitRequest, input: Option<&ShippedInput>) -> u64 {
    // The input is length-prefixed and the config rendered in a fixed
    // shape after it, so no two jobs render to the same bytes.
    let input = match input {
        Some(shipped) => format!(
            "file {} {}\n{}",
            shipped.format.name(),
            shipped.text.len(),
            shipped.text
        ),
        None => format!("suite {:?}", spec.source.describe()),
    };
    let bytes = format!(
        "{input}\n{:016x}|{:?}|{:?}|{:?}|{:?}|{}",
        lib.digest(),
        spec.seed,
        spec.vectors,
        spec.verify.map(proto::verify_name),
        spec.engines,
        spec.partitions.unwrap_or(0),
    );
    fnv1a64(bytes.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proto::InputFormat;

    /// The resolved spec of a submit whose JSON fields are `fields`.
    fn spec(fields: &str) -> SubmitRequest {
        match proto::parse_request(&format!(r#"{{"op":"submit",{fields}}}"#)).unwrap() {
            proto::Request::Submit(spec) => *spec,
            other => panic!("not a submit: {other:?}"),
        }
    }

    fn file(path: &str) -> SubmitRequest {
        spec(&format!(
            r#""file":"{path}","seed":7,"vectors":64,"verify":"final","engines":"gdo""#
        ))
    }

    fn bench(text: &str) -> ShippedInput {
        ShippedInput {
            format: InputFormat::Bench,
            text: text.to_string(),
        }
    }

    fn key(spec: &SubmitRequest, input: Option<&ShippedInput>) -> u64 {
        cache_key(&library::standard_library(), spec, input)
    }

    /// `y = AND(a, NOT b)` and `y = AND(b, NOT a)`: one structure once
    /// the ports are swapped, two functions of the ports as named.
    #[test]
    fn port_swapped_inputs_get_two_keys() {
        let ab = bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(b)\ny = AND(a, n)\n");
        let ba = bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\ny = AND(b, n)\n");
        let spec = file("/jobs/x.bench");
        assert_ne!(key(&spec, Some(&ab)), key(&spec, Some(&ba)));
    }

    #[test]
    fn structurally_different_netlists_differ() {
        let and = bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
        let or = bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n");
        let spec = file("/jobs/x.bench");
        assert_ne!(key(&spec, Some(&and)), key(&spec, Some(&or)));
    }

    #[test]
    fn equal_text_under_another_path_shares_a_key() {
        let text = bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
        assert_eq!(
            key(&file("/jobs/a.bench"), Some(&text)),
            key(&file("/elsewhere/b.bench"), Some(&text))
        );
    }

    #[test]
    fn the_input_format_is_part_of_the_key() {
        let text = ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n";
        let as_blif = ShippedInput {
            format: InputFormat::Blif,
            text: text.to_string(),
        };
        let blif_job = file("/jobs/m.blif");
        assert_ne!(
            key(&blif_job, Some(&as_blif)),
            key(&blif_job, Some(&bench(text)))
        );
        // A suite job is keyed by its name, never by a file of that text.
        let suite = spec(r#""circuit":"Z5xp1","seed":7"#);
        assert_ne!(key(&suite, None), key(&suite, Some(&bench("Z5xp1"))));
    }

    #[test]
    fn every_config_axis_moves_the_key() {
        let base_fields =
            r#""circuit":"Z5xp1","seed":7,"vectors":64,"verify":"final","engines":"gdo""#;
        let base = key(&spec(base_fields), None);
        assert_eq!(base, key(&spec(base_fields), None), "deterministic");
        assert_eq!(
            base,
            key(&spec(&format!(r#"{base_fields},"partitions":0"#)), None),
            "partitions 0 is the whole-netlist run"
        );
        for (axis, fields) in [
            ("circuit", base_fields.replace("Z5xp1", "9sym")),
            ("seed", base_fields.replace("\"seed\":7", "\"seed\":8")),
            ("partitions", format!(r#"{base_fields},"partitions":4"#)),
            ("verify policy", base_fields.replace("final", "off")),
            (
                "engine pipeline",
                base_fields.replace("\"gdo\"", "\"gdo,resub\""),
            ),
            (
                "vectors default vs explicit",
                base_fields.replace(r#""vectors":64,"#, ""),
            ),
        ] {
            assert_ne!(base, key(&spec(&fields), None), "{axis}");
        }
    }

    #[test]
    fn budgets_and_presentation_do_not_move_the_key() {
        let base_fields = r#""circuit":"Z5xp1","seed":7"#;
        let base = key(&spec(base_fields), None);
        let dressed = spec(&format!(
            r#"{base_fields},"id":"other","deadline_ms":5,"work_limit":9,"priority":"high","netlist":true,"progress":true"#
        ));
        assert_eq!(base, key(&dressed, None));
    }
}
