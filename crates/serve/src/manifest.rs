//! Sweep-manifest persistence: the `dvf sweep --manifest` resume path.
//!
//! A manifest run keeps two files next to each other:
//!
//! * `<path>` — the full chunk plan + grid, written once at planning
//!   time by [`dvf_core::gridplan::ChunkPlan::manifest_json_full`]. A
//!   later invocation reloads it verbatim instead of replanning, so the
//!   chunk→shard map (and therefore each shard's warm memo cache) is
//!   exactly the one the original run produced.
//! * `<path>.progress` — an append-only journal with one JSON line per
//!   completed chunk ([`chunk_line`]). Rows are written and read by
//!   the one sweep-row codec ([`RowOutcome::write_fields`] /
//!   [`RowOutcome::from_json`]), which round-trips them bit-exactly, so
//!   a resumed sweep's merged output is byte-identical to an
//!   uninterrupted one.
//!
//! The journal is crash-tolerant in the only way an append-only file
//! needs to be: a torn final line (the process died mid-append) is
//! ignored and its chunk simply re-executes — chunk evaluation is pure,
//! so the replayed rows are identical. A torn line *followed by intact
//! lines* means something other than an append wrote the file, and
//! loading fails loudly instead of resuming from corrupt state.

use crate::coordinator::{ResumeState, RowOutcome};
use crate::jsonval::Json;
use dvf_core::gridplan::ChunkPlan;
use dvf_obs::JsonWriter;

/// The journal path that goes with a manifest path.
pub fn journal_path(manifest_path: &str) -> String {
    format!("{manifest_path}.progress")
}

/// Serialize one completed chunk as a journal line (no trailing newline).
pub fn chunk_line(chunk_id: usize, rows: &[RowOutcome]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("chunk").u64(chunk_id as u64);
    w.key("rows").begin_array();
    for row in rows {
        w.begin_object();
        row.write_fields(&mut w);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Decode one journal line back into `(chunk_id, rows)`.
fn parse_chunk_line(line: &str) -> Result<(usize, Vec<RowOutcome>), String> {
    let doc = Json::parse(line).map_err(|e| format!("unparseable journal line: {e}"))?;
    let chunk = doc
        .get("chunk")
        .and_then(Json::as_u64)
        .ok_or("journal line has no `chunk` id")? as usize;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("journal line has no `rows` array")?
        .iter()
        .enumerate()
        .map(|(i, row)| RowOutcome::from_json(row).map_err(|e| format!("row {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((chunk, rows))
}

/// Rebuild a [`ResumeState`] from journal text. Duplicate chunk lines
/// are idempotent (evaluation is pure, so later lines repeat earlier
/// ones); a torn *final* line is skipped.
pub fn load_journal(text: &str, plan: &ChunkPlan) -> Result<ResumeState, String> {
    let mut state = ResumeState::empty(plan);
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    for (pos, line) in lines.iter().enumerate() {
        let (chunk_id, rows) = match parse_chunk_line(line) {
            Ok(parsed) => parsed,
            Err(e) if pos + 1 == lines.len() => {
                // Torn final append from a killed run: the chunk just
                // re-executes.
                let _ = e;
                continue;
            }
            Err(e) => return Err(format!("journal line {}: {e}", pos + 1)),
        };
        let chunk = plan.chunks.get(chunk_id).ok_or_else(|| {
            format!(
                "journal line {}: chunk {chunk_id} is not in the plan",
                pos + 1
            )
        })?;
        if rows.len() != chunk.indices.len() {
            return Err(format!(
                "journal line {}: chunk {chunk_id} has {} row(s) for {} point(s)",
                pos + 1,
                rows.len(),
                chunk.indices.len()
            ));
        }
        for (&idx, row) in chunk.indices.iter().zip(rows) {
            state.rows[idx] = Some(row);
        }
        state.done[chunk_id] = true;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvf_core::gridplan::{Assignment, GridSpec};

    fn plan() -> (ChunkPlan, GridSpec) {
        let grid =
            GridSpec::new(vec![("n".to_owned(), (0..6).map(|i| i as f64).collect())]).unwrap();
        let plan = ChunkPlan::plan(&grid, 2, 2, Assignment::RoundRobin, |_| 0);
        (plan, grid)
    }

    #[test]
    fn journal_lines_round_trip_rows_bit_exactly() {
        let rows = vec![
            RowOutcome::Ok {
                time_s: 1.5e-7,
                dvf_app: 0.30000000000000004,
            },
            RowOutcome::Err("model error for data structure `A`: boom".to_owned()),
        ];
        let line = chunk_line(1, &rows);
        let (id, back) = parse_chunk_line(&line).unwrap();
        assert_eq!(id, 1);
        assert_eq!(back, rows);
    }

    #[test]
    fn load_journal_marks_chunks_done_and_fills_their_rows() {
        let (plan, _) = plan();
        let text = format!(
            "{}\n{}\n",
            chunk_line(
                0,
                &[
                    RowOutcome::Ok {
                        time_s: 1.0,
                        dvf_app: 2.0
                    },
                    RowOutcome::Ok {
                        time_s: 3.0,
                        dvf_app: 4.0
                    },
                ]
            ),
            chunk_line(
                2,
                &[
                    RowOutcome::Ok {
                        time_s: 5.0,
                        dvf_app: 6.0
                    },
                    RowOutcome::Err("boom".to_owned()),
                ]
            ),
        );
        let state = load_journal(&text, &plan).unwrap();
        assert_eq!(state.done, vec![true, false, true]);
        assert_eq!(state.chunks_done(), 2);
        assert!(state.rows[0].is_some() && state.rows[4].is_some());
        assert!(state.rows[2].is_none(), "chunk 1's points stay pending");
    }

    #[test]
    fn torn_final_line_is_skipped_but_mid_journal_corruption_fails() {
        let (plan, _) = plan();
        let good = chunk_line(
            0,
            &[
                RowOutcome::Ok {
                    time_s: 1.0,
                    dvf_app: 2.0,
                },
                RowOutcome::Ok {
                    time_s: 3.0,
                    dvf_app: 4.0,
                },
            ],
        );
        let torn = format!("{good}\n{{\"chunk\":2,\"rows\":[{{\"time_");
        let state = load_journal(&torn, &plan).unwrap();
        assert_eq!(state.chunks_done(), 1);
        let corrupt = format!("{{\"chunk\":2,\"rows\":[{{\"time_\n{good}\n");
        assert!(load_journal(&corrupt, &plan).is_err());
    }

    #[test]
    fn journal_shape_mismatches_fail_loudly() {
        let (plan, _) = plan();
        // Chunk id outside the plan.
        let bad_id = chunk_line(
            9,
            &[RowOutcome::Ok {
                time_s: 1.0,
                dvf_app: 2.0,
            }],
        );
        assert!(load_journal(&format!("{bad_id}\n\n"), &plan)
            .unwrap_err()
            .contains("not in the plan"));
        // Wrong row count for the chunk.
        let short = chunk_line(
            0,
            &[RowOutcome::Ok {
                time_s: 1.0,
                dvf_app: 2.0,
            }],
        );
        assert!(load_journal(&format!("{short}\nx\n"), &plan).is_err());
    }
}
