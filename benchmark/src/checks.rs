//! Correctness checks on a rendered run.
//!
//! Every untimed check here reads the structured [`Report`] the public
//! entry point returned, so it sees exactly the numbers the artifact
//! prints. A failed check fails the run; `run.py` counts it into the
//! `failed` total.

use onoc_exp::{Report, Table};
use onoc_topology::{NodeId, RingPath, RingTopology};
use onoc_wa::{ProblemInstance, dominates};

/// Finds a table by name.
pub fn table<'r>(report: &'r Report, name: &str) -> Result<&'r Table, String> {
    report
        .tables()
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| format!("artifact has no `{name}` table"))
}

/// Index of a named column.
pub fn column(table: &Table, name: &str) -> Result<usize, String> {
    table
        .columns()
        .iter()
        .position(|c| c == name)
        .ok_or_else(|| format!("table `{}` has no `{name}` column", table.name()))
}

/// Parses one cell of a row.
pub fn cell<T: std::str::FromStr>(table: &Table, row: &[String], name: &str) -> Result<T, String> {
    let raw = &row[column(table, name)?];
    raw.parse()
        .map_err(|_| format!("`{}`.{name}: cannot parse {raw:?}", table.name()))
}

/// The first narrative line starting with `prefix`.
pub fn text_line<'r>(report: &'r Report, prefix: &str) -> Result<&'r str, String> {
    report
        .blocks
        .iter()
        .find_map(|b| match b {
            onoc_exp::Block::Text(t) if t.starts_with(prefix) => Some(t.as_str()),
            _ => None,
        })
        .ok_or_else(|| format!("artifact has no line starting with {prefix:?}"))
}

/// The integer that precedes `word` in `line` (`"… 120400 evaluations …"`).
pub fn count_before(line: &str, word: &str) -> Result<u64, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    words
        .windows(2)
        .find(|w| w[1].trim_end_matches(',') == word)
        .and_then(|w| w[0].parse().ok())
        .ok_or_else(|| format!("no count before {word:?} in {line:?}"))
}

/// Fails with `what` unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok { Ok(()) } else { Err(what()) }
}

fn positive_finite(v: f64, what: &str) -> Result<(), String> {
    ensure(v.is_finite() && v > 0.0, || {
        format!("{what} must be finite and > 0, got {v}")
    })
}

/// NSGA-II: the front is non-empty and mutually non-dominated, and each
/// point's count vector re-evaluates to the execution time the artifact
/// prints. Returns the number of evaluations (the work count).
pub fn ga(report: &Report, wavelengths: usize) -> Result<u64, String> {
    let line = text_line(report, "NSGA-II:")?;
    let evaluations = count_before(line, "evaluations")?;
    let on_front = count_before(line, "on")?;
    let front = table(report, "front")?;
    ensure(!front.rows().is_empty(), || {
        "the Pareto front is empty".into()
    })?;
    ensure(front.rows().len() as u64 == on_front, || {
        format!(
            "front table has {} rows, text says {on_front}",
            front.rows().len()
        )
    })?;
    let mut points = Vec::new();
    for row in front.rows() {
        let exec: f64 = cell(front, row, "exec_kcc")?;
        let energy: f64 = cell(front, row, "bit_energy_fj")?;
        points.push([exec, energy]);
    }
    // The artifact prints 4 decimals, so only a lead of more than one
    // rounding step in every objective proves dominance here; the traced
    // run checks the unrounded front.
    let step = 1e-4;
    for (i, a) in points.iter().enumerate() {
        for (j, b) in points.iter().enumerate() {
            let shifted = [a[0] + step, a[1] + step];
            ensure(i == j || !dominates(&shifted, b), || {
                format!("front point {i} {a:?} dominates point {j} {b:?}")
            })?;
        }
    }
    let instance = ProblemInstance::paper_with_wavelengths(wavelengths);
    let evaluator = instance.evaluator();
    let counts_col = column(front, "counts")?;
    for row in front.rows() {
        let counts: Vec<usize> = row[counts_col]
            .split('|')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| format!("bad counts cell {:?}", row[counts_col]))?;
        let alloc = instance
            .allocation_from_counts(&counts)
            .map_err(|e| format!("front counts {counts:?} do not pack: {e}"))?;
        let o = evaluator
            .evaluate(&alloc)
            .ok_or_else(|| format!("front counts {counts:?} re-evaluate as invalid"))?;
        let exec = format!("{:.4}", o.exec_time.to_kilocycles());
        ensure(exec == row[column(front, "exec_kcc")?], || {
            format!(
                "counts {counts:?} re-evaluate to {exec} kcc, artifact says {}",
                row[0]
            )
        })?;
    }
    Ok(evaluations)
}

/// Sweep: one row per grid point, messages injected, nothing lost, and a
/// finite positive energy figure on every row. Returns the messages.
pub fn sweep(report: &Report, points: usize) -> Result<u64, String> {
    let t = table(report, "sweep")?;
    ensure(t.rows().len() == points, || {
        format!("sweep has {} rows, grid has {points}", t.rows().len())
    })?;
    let mut messages = 0u64;
    for row in t.rows() {
        let m: u64 = cell(t, row, "messages")?;
        let lost: u64 = cell(t, row, "lost")?;
        ensure(m > 0, || "a sweep point injected no messages".into())?;
        ensure(lost == 0, || {
            format!("{lost} messages lost on a fault-free sweep")
        })?;
        positive_finite(cell(t, row, "energy_pj_per_bit")?, "energy_pj_per_bit")?;
        messages += m;
    }
    Ok(messages)
}

/// Static map with telemetry: delivered + lost = injected, the windowed
/// series retires every delivered message, the map replays conflict-free
/// and pJ/bit is finite and positive. Returns the injected messages.
pub fn stream(report: &Report) -> Result<u64, String> {
    let injected = count_before(text_line(report, "trace:")?, "messages")?;
    let s = table(report, "scenario")?;
    let row = s.rows().first().ok_or("empty scenario table")?;
    let delivered: u64 = cell(s, row, "messages")?;
    let lost: u64 = cell(s, row, "lost")?;
    ensure(delivered + lost == injected, || {
        format!("{delivered} delivered + {lost} lost != {injected} injected")
    })?;
    let conflicts: u64 = cell(s, row, "conflicts")?;
    ensure(conflicts == 0, || {
        format!("{conflicts} conflicts on a disjoint static map")
    })?;
    positive_finite(cell(s, row, "energy_pj_per_bit")?, "energy_pj_per_bit")?;
    let series = table(report, "timeseries")?;
    let mut retired = 0u64;
    for r in series.rows() {
        retired += cell::<u64>(series, r, "retired")?;
    }
    ensure(retired == delivered, || {
        format!("windows retire {retired} messages, scenario row says {delivered}")
    })?;
    table(report, "per_flow_energy")?;
    Ok(injected)
}

/// Serve: admitted + blocked = offered, one grant row per admission, and
/// replaying the admission log never finds two live sessions on
/// overlapping paths holding a common lane. Returns the sessions offered.
pub fn serve(report: &Report, nodes: usize) -> Result<u64, String> {
    let s = table(report, "service")?;
    let row = s.rows().first().ok_or("empty service table")?;
    let offered: u64 = cell(s, row, "offered")?;
    let admitted: u64 = cell(s, row, "admitted")?;
    let blocked: u64 = cell(s, row, "blocked")?;
    ensure(admitted + blocked == offered, || {
        format!("{admitted} admitted + {blocked} blocked != {offered} offered")
    })?;
    let log = table(report, "admission_log")?;
    let grants = replay_admission_log(log, nodes)?;
    ensure(grants == admitted, || {
        format!("log has {grants} grants, service row says {admitted} admitted")
    })?;
    Ok(offered)
}

/// Replays grant/release/move rows and checks lane disjointness of every
/// pair of live, path-overlapping sessions. Returns the grant count.
fn replay_admission_log(log: &Table, nodes: usize) -> Result<u64, String> {
    let ring = RingTopology::new(nodes);
    let (ev, sess, src, dst, lanes) = (
        column(log, "event")?,
        column(log, "session")?,
        column(log, "src")?,
        column(log, "dst")?,
        column(log, "lanes")?,
    );
    let parse_u = |raw: &str| {
        raw.parse::<usize>()
            .map_err(|_| format!("bad cell {raw:?}"))
    };
    let parse_mask = |raw: &str| {
        u128::from_str_radix(raw.trim_start_matches("0x"), 16)
            .map_err(|_| format!("bad lane mask {raw:?}"))
    };
    // Live sessions: (id, path, lane mask). Few are live at a time. The
    // move rows after a defrag row are one atomic re-pack, so they are
    // checked together once the batch ends.
    let mut live: Vec<(usize, RingPath, u128)> = Vec::new();
    let mut moved: Vec<usize> = Vec::new();
    let mut grants = 0u64;
    for row in log.rows() {
        let kind = row[ev].as_str();
        if kind != "move" {
            check_disjoint(&live, &moved)?;
            moved.clear();
        }
        match kind {
            "grant" | "move" => {
                let id = parse_u(&row[sess])?;
                let (s, d) = (NodeId(parse_u(&row[src])?), NodeId(parse_u(&row[dst])?));
                let path = RingPath::new(&ring, s, d, ring.shortest_direction(s, d));
                live.retain(|(other, _, _)| *other != id);
                live.push((id, path, parse_mask(&row[lanes])?));
                if kind == "grant" {
                    check_disjoint(&live, &[id])?;
                    grants += 1;
                } else {
                    moved.push(id);
                }
            }
            "release" => {
                let id = parse_u(&row[sess])?;
                live.retain(|(other, _, _)| *other != id);
            }
            _ => {}
        }
    }
    check_disjoint(&live, &moved)?;
    Ok(grants)
}

/// Checks each session in `ids` against every other live session.
fn check_disjoint(live: &[(usize, RingPath, u128)], ids: &[usize]) -> Result<(), String> {
    for &id in ids {
        let (_, path, mask) = live
            .iter()
            .find(|(s, _, _)| *s == id)
            .ok_or_else(|| format!("session {id} is not live"))?;
        if let Some((other, _, _)) = live
            .iter()
            .find(|(s, p, m)| *s != id && m & mask != 0 && p.overlaps(path))
        {
            return Err(format!(
                "session {id} shares a lane with live session {other} on an overlapping path"
            ));
        }
    }
    Ok(())
}
