//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release --bin repro -- all
//! cargo run --release --bin repro -- table1 fig8 --quick
//! ```
//!
//! Artifacts: `table1 table2 table3 table4 fig2 fig3 fig4 fig5 fig6 fig7
//! fig8 fig9 fig11 obs ftol ext` (figures 1 and 10 are workflow diagrams,
//! encoded as the `fleet::Stage` lifecycle and `farron::StateMachine`;
//! `ext` prints the §4.2/§5/§6.2 extensions: suspect localization,
//! cooling-device control, asymmetric coding, fail-in-place capacity).
//! `--quick` shrinks durations for a fast smoke pass. `conform` runs the
//! conformance gate.
//!
//! One process, one session: the fleet campaign, the deep study and the
//! Farron evaluation of each config run at most once, on one set of
//! profile caches, however many artifacts and the gate read them.
//!
//! Operational robustness: `--chaos <spec>` exposes the campaign
//! (table1/table2) and the Farron evaluation (table4/fig11) to a seeded
//! fault plan; `--checkpoint <path>` snapshots campaign progress so a
//! killed run can continue with `--resume <path>`, bitwise identical to
//! an uninterrupted run.

use analysis::study::{run_deep_study_with, StudyData};
use analysis::{
    bitflips, casebook, datatypes, features, observations, precision, reproducibility, temperature,
    AttritionReport,
};
use conformance::metrics::{campaign_config, eval_config, study_config, table4_config};
use farron::eval::{evaluate_resumable, evaluate_with, EvalConfig, EvalRow};
use fleet::{
    campaign_fingerprint, run_campaign, run_campaign_resumable, CampaignOutcome, Checkpoint,
    CheckpointStore, FaultPlan, FleetPopulation, ResumableRun, RetryPolicy, SuiteProfileCache,
};
use sdc_model::{DataType, Duration};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use toolchain::{ProfileCache, Suite};

/// The names that select the fleet campaign's artifacts (Tables 1–2).
const CAMPAIGN: &[&str] = &["table1", "table2"];
/// The names that select the Farron evaluation's artifacts.
const EVAL: &[&str] = &["table4", "fig11"];
/// The conformance gate (golden statistics + metamorphic invariants +
/// differential oracle). It is deliberately *not* part of `all`: its
/// verdict maps to the exit code. It reads the session's campaign,
/// study and evaluation, so after other artifacts it re-runs none of
/// them.
const CONFORM: &str = "conform";

/// Prints the artifacts of one [`ARTIFACTS`] row.
type Printer = fn(&Session);

/// Every artifact `repro` prints, in print order, with the names that
/// select it (`all` selects every row). Each printer reads the
/// [`Session`], so a campaign, study or evaluation that several rows
/// (or the gate) need runs once.
const ARTIFACTS: &[(&[&str], Printer)] = &[
    (CAMPAIGN, table1_and_2),
    (&["table3"], table3),
    (&["fig2"], fig2),
    (&["fig3"], fig3),
    (&["fig4", "fig5"], fig4_and_5),
    (&["fig6", "fig7"], fig6_and_7),
    (&["fig8"], fig8),
    (&["fig9"], fig9),
    (&["obs"], observations_summary),
    (EVAL, table4_and_fig11),
    (&["ftol"], ftol_audit),
    (&["ext"], extensions),
];

/// Every name `repro` accepts as an artifact.
fn artifact_names() -> impl Iterator<Item = &'static str> {
    let rows = ARTIFACTS
        .iter()
        .flat_map(|(names, _)| names.iter().copied());
    std::iter::once("all").chain(rows).chain([CONFORM])
}

/// Campaign items between checkpoint snapshots.
const CHECKPOINT_EVERY: usize = 64;

#[derive(Debug, Clone, Default, PartialEq)]
struct Opts {
    quick: bool,
    threads: usize,
    chaos: Option<FaultPlan>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    write_golden: Option<PathBuf>,
    artifacts: Vec<String>,
}

impl Opts {
    /// Whether any of `names` was requested, by name or through `all`.
    fn wants(&self, names: &[&str]) -> bool {
        self.artifacts
            .iter()
            .any(|a| a == "all" || names.contains(&a.as_str()))
    }

    fn wants_conform(&self) -> bool {
        self.artifacts.iter().any(|a| a == CONFORM)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Parsed {
    Run(Opts),
    Help,
}

/// Strict argument parser: unknown flags and unknown artifact names are
/// errors (the caller exits nonzero), never silently collected, and so
/// is a flag that no requested artifact reads.
fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--threads" => {
                let v = value("a value")?;
                opts.threads = v
                    .parse()
                    .map_err(|_| format!("--threads needs an unsigned integer, got '{v}'"))?;
            }
            "--chaos" => {
                let plan = FaultPlan::parse(value("a fault-plan spec")?);
                opts.chaos = Some(plan.map_err(|e| format!("--chaos: {e}"))?);
            }
            "--checkpoint" => opts.checkpoint = Some(value("a path")?.into()),
            "--resume" => opts.resume = Some(value("a path")?.into()),
            "--write-golden" => opts.write_golden = Some(value("a path")?.into()),
            "--help" | "-h" => return Ok(Parsed::Help),
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            other => {
                if !artifact_names().any(|name| name == other) {
                    return Err(format!(
                        "unknown artifact '{other}' (expected one of: {})",
                        artifact_names().collect::<Vec<_>>().join(" ")
                    ));
                }
                opts.artifacts.push(other.to_string());
            }
        }
    }
    if opts.artifacts.is_empty() {
        opts.artifacts.push("all".to_string());
    }
    if opts.write_golden.is_some() && !opts.wants_conform() {
        return Err("--write-golden is only read by `conform`".to_string());
    }
    if (opts.checkpoint.is_some() || opts.resume.is_some()) && !opts.wants(CAMPAIGN) {
        return Err("--checkpoint and --resume are only read by table1, table2 or all".to_string());
    }
    if opts.chaos.is_some() && !opts.wants(CAMPAIGN) && !opts.wants(EVAL) {
        return Err("--chaos is only read by table1, table2, table4, fig11 or all".to_string());
    }
    Ok(Parsed::Run(opts))
}

fn usage() -> String {
    format!(
        "usage: repro [--quick] [--threads N] [--chaos SPEC] [--checkpoint PATH] [--resume PATH] [{}]...\n\
         \n\
         \x20 --threads N        worker threads for campaign/study/eval (0 = all cores);\n\
         \x20                    results are bitwise identical for every value\n\
         \x20 --chaos SPEC       inject operational faults into the campaign and the\n\
         \x20                    Farron evaluation; SPEC is a key=value comma list over\n\
         \x20                    offline, crash, preempt, read_error, timeout (probabilities)\n\
         \x20                    and seed, e.g. 'offline=0.05,preempt=0.1,seed=7'\n\
         \x20 --checkpoint PATH  snapshot campaign progress to PATH every {CHECKPOINT_EVERY} items\n\
         \x20 --resume PATH      restore completed items from PATH before running\n\
         \x20                    (also keeps snapshotting there unless --checkpoint is given)\n\
         \x20 --write-golden PATH  with `conform`: re-measure the current mode's metrics\n\
         \x20                    and rewrite the golden file at PATH instead of gating",
        artifact_names().collect::<Vec<_>>().join("|")
    )
}

/// One `repro` process: the options, the suite and both profile caches,
/// built once. Each computation behind the artifacts — the plain fleet
/// campaign, the deep study, the Farron evaluation of each distinct
/// config — runs at most once, on those caches, however many artifacts
/// (and the gate) read it. Unit profiles are pure in their key, so
/// sharing the caches changes no result. Supervised runs (`--chaos`,
/// `--checkpoint`, `--resume`) are not memoized.
#[derive(Default)]
struct Session {
    opts: Opts,
    suite: Suite,
    suite_cache: SuiteProfileCache,
    unit_cache: Arc<ProfileCache>,
    campaign: OnceLock<CampaignOutcome>,
    study: OnceLock<StudyData>,
    evals: RefCell<Vec<(EvalConfig, Rc<[EvalRow]>)>>,
}

impl Session {
    /// The unsupervised campaign behind Tables 1–2.
    fn campaign(&self) -> &CampaignOutcome {
        self.campaign.get_or_init(|| {
            let cfg = campaign_config(self.opts.quick, self.opts.threads);
            eprintln!(
                "[repro] running the fleet campaign over {} CPUs…",
                cfg.total_cpus
            );
            run_campaign(&cfg, &self.suite)
        })
    }

    /// The 27-processor deep study.
    fn study(&self) -> &StudyData {
        self.study.get_or_init(|| {
            eprintln!("[repro] running the 27-processor deep study…");
            run_deep_study_with(
                &study_config(self.opts.quick, self.opts.threads),
                &self.suite_cache,
                Arc::clone(&self.unit_cache),
            )
        })
    }

    /// The rows of an unsupervised Farron evaluation of `cfg`.
    fn eval(&self, cfg: &EvalConfig) -> Rc<[EvalRow]> {
        if let Some((_, rows)) = self.evals.borrow().iter().find(|(c, _)| c == cfg) {
            return Rc::clone(rows);
        }
        eprintln!(
            "[repro] running the Farron evaluation (rounds = {})…",
            cfg.rounds
        );
        let rows: Rc<[EvalRow]> =
            evaluate_with(cfg, &self.suite_cache, Arc::clone(&self.unit_cache)).into();
        self.evals.borrow_mut().push((*cfg, Rc::clone(&rows)));
        rows
    }
}

fn hr(title: &str) {
    println!("\n==== {title} ====");
}

fn table1_and_2(s: &Session) {
    let opts = &s.opts;
    let supervised = opts.chaos.is_some() || opts.checkpoint.is_some() || opts.resume.is_some();
    if !supervised {
        print_tables_1_2(s.campaign());
        return;
    }
    let cfg = campaign_config(opts.quick, opts.threads);
    eprintln!(
        "[repro] running the fleet campaign over {} CPUs…",
        cfg.total_cpus
    );

    let plan = opts.chaos.unwrap_or_default();
    let policy = RetryPolicy::default();
    let fingerprint = campaign_fingerprint(&cfg, &plan);
    let resume = opts
        .resume
        .as_ref()
        .map(|path| match Checkpoint::load(path, &fingerprint) {
            Ok(ck) => {
                eprintln!(
                    "[repro] resuming from {} ({} completed items)",
                    path.display(),
                    ck.items.len()
                );
                ck
            }
            Err(e) => {
                eprintln!("repro: cannot resume: {e}");
                std::process::exit(2);
            }
        });
    let store = opts
        .checkpoint
        .clone()
        .or_else(|| opts.resume.clone())
        .map(|path| CheckpointStore::new(path, CHECKPOINT_EVERY));
    let pop = FleetPopulation::sample(&cfg);
    match run_campaign_resumable(
        &cfg,
        &s.suite,
        &pop,
        &plan,
        &policy,
        store.as_ref(),
        resume.as_ref(),
    ) {
        Ok(ResumableRun::Completed(run)) => {
            print_tables_1_2(&run.outcome);
            hr("Operational robustness — campaign coverage and attrition");
            println!("{}", AttritionReport::of(&run));
        }
        Ok(ResumableRun::Interrupted) => {
            unreachable!("invariant violated: no kill hook is configured from the CLI")
        }
        Err(e) => {
            eprintln!("repro: checkpoint failure: {e}");
            std::process::exit(1);
        }
    }
}

fn print_tables_1_2(out: &CampaignOutcome) {
    hr("Table 1 — failure rate (‱) by test timing");
    println!("{:<12} {:>10} {:>10}", "timing", "measured", "paper");
    for ((label, measured), (_, paper)) in out
        .table1()
        .iter()
        .zip(analysis::failure_rates::PAPER_TABLE1_BP)
    {
        println!("{label:<12} {measured:>10.3} {paper:>10.3}");
    }
    println!("(escaped defective processors: {})", out.escaped());
    let exposure = fleet::exposure_report(out);
    println!(
        "(production exposure: {} CPUs reached production; regular tests caught {} after {:.0} days on average, worst {:.0}; {} never caught — §3.1's window)",
        exposure.reached_production,
        exposure.caught_by_regular,
        exposure.mean_exposure_days_caught,
        exposure.max_exposure_days_caught,
        exposure.never_caught
    );
    hr("Table 2 — failure rate (‱) by micro-architecture");
    println!("{:<6} {:>10} {:>10}", "arch", "measured", "paper");
    for ((label, measured), paper) in out
        .table2()
        .iter()
        .zip(analysis::failure_rates::PAPER_TABLE2_BP)
    {
        println!("{label:<6} {measured:>10.3} {paper:>10.3}");
    }
}

fn table3(s: &Session) {
    let study = s.study();
    hr("Table 3 — faulty-processor case studies (measured)");
    println!(
        "{:<7} {:<5} {:>6} {:>7} {:>5}  {:<12} impacted datatypes",
        "CPU id", "arch", "age(Y)", "#pcore", "#err", "SDC type"
    );
    for row in casebook::table3(study) {
        let dts: Vec<&str> = row.impacted_datatypes.iter().map(|d| d.label()).collect();
        println!(
            "{:<7} {:<5} {:>6.2} {:>7} {:>5}  {:<12} {}",
            row.name,
            row.arch.to_string(),
            row.age_years,
            row.defective_cores.len(),
            row.n_err,
            row.sdc_type
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            dts.join(", ")
        );
    }
}

fn fig2(s: &Session) {
    let study = s.study();
    hr("Figure 2 — proportion of processors with a faulty feature");
    for share in features::figure2(study, &s.suite) {
        println!("{:<8} {:>6.3}", share.feature.label(), share.proportion);
    }
}

fn fig3(s: &Session) {
    let study = s.study();
    hr("Figure 3 — proportion of processors per affected datatype");
    for share in datatypes::figure3(study) {
        println!("{:<6} {:>6.3}", share.datatype.label(), share.proportion);
    }
}

fn fig4_and_5(s: &Session) {
    let study = s.study();
    let corpus = analysis::RecordCorpus::collect(study.all_records());
    hr("Figure 4(a–d) — bitflip positions (share per bit, 0→1 / 1→0)");
    for dt in [DataType::I32, DataType::F32, DataType::F64, DataType::F64X] {
        let hist = corpus.bit_histogram(dt);
        let top: Vec<String> = hist
            .iter()
            .filter(|b| b.zero_to_one + b.one_to_zero > 0.01)
            .map(|b| format!("bit{}={:.2}", b.index, b.zero_to_one + b.one_to_zero))
            .collect();
        println!(
            "{:<5}: msb4 share {:.4}; hottest bits: {}",
            dt.label(),
            bitflips::msb_share(&hist, 4),
            if top.is_empty() {
                "-".into()
            } else {
                top.join(" ")
            }
        );
    }
    println!(
        "0→1 flip share overall: {:.4} (paper: 0.5108)",
        corpus.zero_to_one_share()
    );
    hr("Figure 4(e–h) — relative precision-loss CDF checkpoints");
    println!(
        "{:<6} {:>12} {:>14} {:>12}",
        "dtype", "P[<0.002%]", "P[<0.02%]", "P[<5%]"
    );
    for dt in [DataType::I32, DataType::F32, DataType::F64, DataType::F64X] {
        let cdf = precision::loss_cdf(study.all_records(), dt);
        if cdf.log10_cdf.is_empty() {
            println!("{:<6} (no records)", dt.label());
            continue;
        }
        println!(
            "{:<6} {:>12.4} {:>14.4} {:>12.4}",
            dt.label(),
            cdf.fraction_below(2e-5),
            cdf.fraction_below(2e-4),
            cdf.fraction_below(5e-2),
        );
    }
    hr("Figure 5 — non-numerical bitflip positions (≈ uniform)");
    for dt in [DataType::Bin32, DataType::Bin64] {
        let hist = corpus.bit_histogram(dt);
        let upper: f64 = hist
            .iter()
            .filter(|b| b.index >= dt.bits() / 2)
            .map(|b| b.zero_to_one + b.one_to_zero)
            .sum();
        println!(
            "{:<6}: upper-half share {:.3} (uniform would be 0.5)",
            dt.label(),
            upper
        );
    }
}

fn fig6_and_7(s: &Session) {
    let study = s.study();
    let corpus = analysis::RecordCorpus::collect(study.all_records());
    hr("Figure 6 — share of SDCs matching a bitflip pattern, per setting");
    let all_mined = corpus.mine_patterns();
    let mut mined = all_mined.clone();
    mined.retain(|s| s.n_records >= 20);
    mined.sort_by_key(|s| std::cmp::Reverse(s.n_records));
    for s in mined.iter().take(17) {
        println!(
            "{:<28} records {:>5}  patterns {:>2}  share {:.3}",
            s.setting.to_string(),
            s.n_records,
            s.patterns.len(),
            s.pattern_share
        );
    }
    hr("Figure 7 — flipped-bit multiplicity among pattern records");
    println!("{:<6} {:>6} {:>6} {:>6}", "dtype", "1", "2", ">2");
    for dt in [
        DataType::F32,
        DataType::F64,
        DataType::F64X,
        DataType::I32,
        DataType::Byte,
    ] {
        let m = corpus.flip_multiplicity_with(&all_mined, dt);
        println!(
            "{:<6} {:>6.2} {:>6.2} {:>6.2}",
            dt.label(),
            m.one,
            m.two,
            m.more
        );
    }
}

fn fig8(s: &Session) {
    hr("Figure 8 — log10(frequency) vs temperature");
    let window = if s.opts.quick {
        Duration::from_mins(10)
    } else {
        Duration::from_mins(60)
    };
    // Testcases are chosen among those the panel defect's code paths
    // actually reach (§4.1 selectivity).
    for panel in temperature::FIG8_PANELS {
        let name = panel.processor;
        let processor = silicon::catalog::by_name(name)
            .expect("invariant violated: figure 8 panels name catalog processors")
            .processor;
        let (hottest, tc) = temperature::panel_setting(
            &processor,
            &processor.defects[panel.defect],
            &s.suite,
            panel.prefix,
        );
        let core = panel.core.unwrap_or(hottest);
        let tc =
            tc.expect("invariant violated: every figure 8 panel defect matches a suite testcase");
        let sweep = temperature::temperature_sweep(
            &processor,
            &s.suite,
            tc,
            core,
            &panel.temps(),
            window,
            temperature::FIG8_SEED,
        );
        let pts: Vec<String> = sweep
            .points
            .iter()
            .map(|p| format!("{:.0}℃:{:.3}", p.temp_c, p.freq_per_min))
            .collect();
        match sweep.fit {
            Some(fit) => println!(
                "{name} pcore{core}: r = {:.4} (paper panels: 0.79/0.92/0.89), slope {:.3}/℃\n    {}",
                fit.r,
                fit.slope,
                pts.join("  ")
            ),
            None => println!("{name} pcore{core}: too few nonzero points\n    {}", pts.join("  ")),
        }
    }
}

fn fig9(s: &Session) {
    let study = s.study();
    hr("Figure 9 — min triggering temperature vs frequency at threshold");
    let (grid, window) = temperature::figure9_scan(s.opts.quick);
    let mut points = Vec::new();
    for case in &study.cases {
        // Up to two settings per processor keep the scan tractable; pick
        // the *most reproducible* settings — the ones a study would track
        // (and the paper's per-setting points come from its deep-study
        // reproducers).
        let mut ranked = case.freq_per_setting.clone();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("invariant violated: setting frequencies are finite")
        });
        let mut picked: Vec<(u16, sdc_model::TestcaseId)> = Vec::new();
        for &(s, _) in &ranked {
            if picked.len() >= 2 {
                break;
            }
            if picked.iter().any(|&(_, t)| t == s.testcase) {
                continue;
            }
            picked.push((s.core.0, s.testcase));
        }
        for (core, tc) in picked {
            if let Some(p) = temperature::min_trigger_temp(
                &case.processor,
                &s.suite,
                tc,
                core,
                &grid,
                window,
                90 + case.processor.id.0,
            ) {
                points.push(p);
            }
        }
    }
    for p in &points {
        println!(
            "{:<28} t_min {:>4.0}℃  freq {:>10.4}/min",
            p.setting.to_string(),
            p.min_trigger_temp_c,
            p.freq_at_min
        );
    }
    match temperature::figure9_correlation(&points) {
        Some(r) => println!(
            "Pearson r = {r:.4} (paper: −0.8272) over {} settings",
            points.len()
        ),
        None => println!("too few settings for a correlation"),
    }
}

fn table4_and_fig11(s: &Session) {
    let cfg = table4_config(s.opts.quick, s.opts.threads);
    let (rows, attrition) = match &s.opts.chaos {
        Some(plan) => {
            eprintln!("[repro] running the Farron evaluation…");
            match evaluate_resumable(
                &cfg,
                plan,
                &RetryPolicy::default(),
                None,
                None,
                &s.suite_cache,
                Arc::clone(&s.unit_cache),
            ) {
                Ok(ResumableRun::Completed((rows, attrition))) => (rows.into(), Some(attrition)),
                _ => unreachable!(
                    "invariant violated: without a store nothing can fail or interrupt"
                ),
            }
        }
        None => (s.eval(&cfg), None),
    };
    hr("Figure 11 — one-round regular-testing coverage");
    println!(
        "{:<7} {:>7} {:>9} {:>9}",
        "CPU", "known", "Farron", "Baseline"
    );
    for r in rows.iter() {
        println!(
            "{:<7} {:>7} {:>9.3} {:>9.3}",
            r.name, r.known_errors, r.farron_coverage, r.baseline_coverage
        );
    }
    hr("Table 4 — overhead (% of a three-month cycle)");
    println!(
        "{:<7} {:>10} {:>10} {:>10} {:>10}  {:>12}",
        "CPU", "F-test%", "F-ctrl%", "F-total%", "Base%", "backoff s/h"
    );
    for r in rows.iter() {
        println!(
            "{:<7} {:>10.3} {:>10.3} {:>10.3} {:>10.3}  {:>12.3}",
            r.name,
            r.farron_test_overhead * 100.0,
            r.farron_control_overhead * 100.0,
            (r.farron_test_overhead + r.farron_control_overhead) * 100.0,
            r.baseline_test_overhead * 100.0,
            r.backoff_secs_per_hour
        );
    }
    let mean_round: f64 =
        rows.iter().map(|r| r.farron_round_hours).sum::<f64>() / rows.len().max(1) as f64;
    println!(
        "mean Farron round: {:.2} h (paper: 1.02 h); baseline round: {:.2} h (paper: 10.55 h)",
        mean_round,
        rows.first().map(|r| r.baseline_round_hours).unwrap_or(0.0)
    );
    if let Some(attrition) = attrition {
        hr("Operational robustness — evaluation test windows");
        println!("{}", AttritionReport::from_parts(attrition, Vec::new()));
    }
}

fn observations_summary(s: &Session) {
    let study = s.study();
    hr("Observations 4–11 (measured)");
    let scope = observations::obs4_scope(study);
    println!(
        "Obs 4: {} single-core / {} multi-core faulty processors; max cross-core freq ratio {:.0}×",
        scope.single_core, scope.multi_core, scope.max_core_freq_ratio
    );
    let types = observations::obs5_types(study);
    println!(
        "Obs 5: {} computation vs {} consistency (paper: 19 vs 8); single-type invariant: {}",
        types.computation, types.consistency, types.single_type_invariant
    );
    let floats = observations::obs6_7_floats(study);
    println!(
        "Obs 6/7: float share {:.3} vs other {:.3}; f64 fraction-part flips {:.3}; 0→1 share {:.3}",
        floats.float_share, floats.other_share, floats.f64_fraction_share, floats.zero_to_one_share
    );
    let repro = reproducibility::summarize(study);
    println!(
        "Obs 9: frequency range [{:.4}, {:.1}] /min; {:.1}% of settings above 1/min (paper: 51.2%)",
        repro.min,
        repro.max,
        repro.share_above_one_per_min * 100.0
    );
    let eff = observations::obs11_effectiveness(study, &s.suite);
    println!(
        "Obs 11: {} of {} testcases never detected anything (paper: 560 of 633)",
        eff.ineffective, eff.suite_size
    );
}

fn extensions(s: &Session) {
    let suite = &s.suite;
    hr("Extensions — §4.1 suspect localization");
    {
        use analysis::suspects::{localizes, rank_suspects, LOCALIZE_MIN_SCORE};
        let study = s.study();
        for name in ["MIX1", "SIMD1", "FPU1", "FPU2", "CNST1", "CNST2"] {
            let Some(case) = study.case(name) else {
                continue;
            };
            let cores = case.processor.physical_cores as usize;
            let profiles = s.suite_cache.get_or_build(suite, cores, s.opts.threads);
            let suspects = rank_suspects(case, suite, &profiles);
            match suspects.first() {
                Some(top) if localizes(&suspects, LOCALIZE_MIN_SCORE) => println!(
                    "{name:<6}: suspect {:?}/{} (score {:.1})",
                    top.class,
                    top.datatype.label(),
                    top.score
                ),
                Some(top) => println!(
                    "{name:<6}: no clean suspect (best {:?}, score {:.1}) — as for the paper's CNST cases",
                    top.class, top.score
                ),
                None => println!("{name:<6}: no failing testcases in this study"),
            }
        }
    }

    hr("Extensions — §4.2 bitflip-aware coding vs uniform SECDED (8 check bits each)");
    {
        use sdc_model::DetRng;
        use silicon::defect::gen_mask;
        let mut mask_rng = DetRng::new(41);
        let mut value_rng = DetRng::new(42);
        let values: Vec<u64> = (0..20_000)
            .map(|_| value_rng.range_f64(1e-3, 1e9).to_bits())
            .collect();
        let c = ftol::sdc_code::compare(values, || {
            gen_mask(sdc_model::DataType::F64, &mut mask_rng) as u64
        });
        println!(
            "uniform SECDED : corrected {:>5}  silent-significant {:>3}  false alarms {:>4}",
            c.uniform_corrected, c.uniform_silent_significant, c.uniform_false_alarms
        );
        println!(
            "asymmetric     : corrected {:>5}  silent-significant {:>3}  false alarms {:>4}   ({} trials)",
            c.asym_corrected, c.asym_silent_significant, c.asym_false_alarms, c.trials
        );
    }

    hr("Extensions — §5 cooling-device control vs workload backoff (MIX1, 2 h)");
    {
        use farron::{simulate_online, AppProfile, ControlMode, OnlineConfig};
        use sdc_model::DetRng;
        let panel = temperature::MIX1_PANEL;
        let mix1 = silicon::catalog::by_name(panel.processor)
            .expect("invariant violated: MIX1 is a catalog processor")
            .processor;
        let tc =
            temperature::panel_setting(&mix1, &mix1.defects[panel.defect], suite, panel.prefix)
                .1
                .expect("invariant violated: MIX1's tricky defect matches a suite workload");
        let app = AppProfile {
            testcase: tc,
            utilization: 0.5,
            burst_amplitude: 0.3,
            burst_period: Duration::from_secs(120),
            spike_prob: 0.002,
        };
        let cores: Vec<u16> = (0..16).collect();
        let cfg = OnlineConfig {
            duration: Duration::from_hours(2),
            ..OnlineConfig::default()
        };
        let mut rng = DetRng::new(51);
        let b = simulate_online(&mix1, suite, &app, &cores, &cfg, &mut rng);
        let mut rng = DetRng::new(51);
        let c = simulate_online(
            &mix1,
            suite,
            &app,
            &cores,
            &OnlineConfig {
                control: ControlMode::CoolingDevice { boost_factor: 0.5 },
                ..cfg
            },
            &mut rng,
        );
        println!(
            "workload backoff: peak {:.1} ℃, SDCs {}, performance loss {:.3}%",
            b.max_temp_c,
            b.sdc_events,
            b.performance_loss * 100.0
        );
        println!(
            "cooling devices : peak {:.1} ℃, SDCs {}, performance loss {:.3}%",
            c.max_temp_c,
            c.sdc_events,
            c.performance_loss * 100.0
        );
    }

    hr("Extensions — fail-in-place capacity over the 27 faulty CPUs");
    {
        let set = silicon::catalog::deep_study_set();
        let report = farron::capacity_report(set.iter().map(|c| &c.processor));
        println!(
            "whole-processor policy retains 0 of {} cores; fine-grained masking retains {} ({:.0}%), {} CPUs deprecated either way",
            report.total_cores,
            report.fine_grained_retained,
            report.saved_fraction() * 100.0,
            report.deprecated_anyway
        );
    }
}

/// The conformance gate: golden statistics, metamorphic invariants and
/// the differential softcore oracle. Returns `false` when anything
/// failed (the caller exits nonzero).
fn conform(s: &Session) -> bool {
    use conformance::{golden, metamorphic, oracle};

    let opts = &s.opts;
    let mode = if opts.quick { "quick" } else { "full" };
    hr(&format!("Conformance gate ({mode} mode)"));
    let (campaign, study) = (s.campaign(), s.study());
    let rows = s.eval(&eval_config(opts.quick, opts.threads));
    eprintln!("[repro] conform: temperature sweep (figures 8-9, MIX1 panel)…");
    let measured = conformance::collect_metrics(campaign, study, &rows, &s.suite, opts.quick);

    if let Some(path) = &opts.write_golden {
        let written = golden::merge_golden(path, mode, &measured)
            .and_then(|file| std::fs::write(path, golden::render_golden(&file)));
        if let Err(e) = written {
            eprintln!("repro: cannot update {}: {e}", path.display());
            return false;
        }
        println!(
            "wrote {} metrics to the {mode} set of {}",
            measured.len(),
            path.display()
        );
        return true;
    }

    let file = golden::golden_file();
    let Some(set) = file.set(mode) else {
        eprintln!(
            "repro: no {mode} golden set recorded; run `repro conform {}--write-golden crates/conformance/GOLDEN.json` first",
            if opts.quick { "--quick " } else { "" }
        );
        return false;
    };
    let report = golden::check(set, &measured);
    println!("{}", report.render());
    let mut ok = report.passed();

    eprintln!("[repro] conform: metamorphic invariants…");
    hr("Metamorphic invariants");
    for inv in metamorphic::run_all(opts.threads) {
        println!(
            "{:<32} {:<4}  {}",
            inv.name,
            if inv.pass { "ok" } else { "FAIL" },
            inv.detail
        );
        ok &= inv.pass;
    }

    // Quick mode is the CI gate floor (≥ 10k defect-free streams).
    let streams = if opts.quick { 10_000 } else { 50_000 };
    eprintln!("[repro] conform: differential oracle ({streams} streams)…");
    hr("Differential softcore oracle");
    let sweep = oracle::sweep(streams, opts.threads, &oracle::OracleConfig::default());
    println!(
        "{} defect-free streams, {} divergences",
        sweep.streams,
        sweep.divergences.len()
    );
    for &(seed, _) in sweep.divergences.iter().take(3) {
        match oracle::minimize(seed, &oracle::OracleConfig::default(), &|| {
            Box::new(softcore::NoFaults)
        }) {
            Some(shrunk) => println!("{}", shrunk.render()),
            None => println!("seed {seed}: divergence did not reproduce under minimization"),
        }
    }
    ok &= sweep.divergences.is_empty();

    println!(
        "\nconformance gate: {}",
        if ok { "PASSED" } else { "FAILED" }
    );
    ok
}

fn ftol_audit(_: &Session) {
    hr("Observation 12 — fault-tolerance techniques vs CPU SDCs");
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>10}",
        "technique", "pre-meta det", "post-meta det", "silent prop", "overhead"
    );
    for o in ftol::audit_all(2000, 12) {
        println!(
            "{:<24} {:>12.3} {:>12.3} {:>12.3} {:>10.3}",
            o.technique.label(),
            o.detected_before_metadata,
            o.detected_after_metadata,
            o.silently_propagated,
            o.overhead
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Parsed::Run(opts)) => opts,
        Ok(Parsed::Help) => {
            println!("{}", usage());
            return;
        }
        Err(e) => {
            eprintln!("repro: {e}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    // Every printer, then the gate, reads the one session: nothing that
    // two of them share runs twice.
    let session = Session {
        opts,
        ..Session::default()
    };
    for (names, print) in ARTIFACTS {
        if session.opts.wants(names) {
            print(&session);
        }
    }
    if session.opts.wants_conform() && !conform(&session) {
        std::process::exit(1);
    }
    println!(
        "\n(figures 1 and 10 are workflow diagrams: see fleet::Stage and farron::StateMachine)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    fn run(raw: &[&str]) -> Opts {
        match parse_args(&args(raw)).expect("valid args") {
            Parsed::Run(opts) => opts,
            Parsed::Help => panic!("unexpected help"),
        }
    }

    #[test]
    fn defaults_to_all_artifacts() {
        let opts = run(&[]);
        assert_eq!(opts.artifacts, vec!["all".to_string()]);
        assert!(!opts.quick);
        assert_eq!(opts.threads, 0);
        assert_eq!(opts.chaos, None);
    }

    #[test]
    fn parses_flags_and_artifacts() {
        let opts = run(&[
            "table1",
            "--quick",
            "--threads",
            "4",
            "--chaos",
            "offline=0.05,preempt=0.1,seed=7",
            "--checkpoint",
            "ck.json",
            "--resume",
            "old.json",
            "fig8",
        ]);
        assert!(opts.quick);
        assert_eq!(opts.threads, 4);
        assert_eq!(
            opts.artifacts,
            vec!["table1".to_string(), "fig8".to_string()]
        );
        let plan = opts.chaos.expect("chaos plan");
        assert_eq!(plan.offline, 0.05);
        assert_eq!(plan.preempt, 0.1);
        assert_eq!(plan.seed, 7);
        assert_eq!(opts.checkpoint, Some(PathBuf::from("ck.json")));
        assert_eq!(opts.resume, Some(PathBuf::from("old.json")));
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = parse_args(&args(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown flag '--frobnicate'"), "{err}");
    }

    #[test]
    fn rejects_unknown_artifacts() {
        let err = parse_args(&args(&["table9"])).unwrap_err();
        assert!(err.contains("unknown artifact 'table9'"), "{err}");
    }

    #[test]
    fn rejects_missing_and_malformed_values() {
        assert!(parse_args(&args(&["--threads"])).is_err());
        assert!(parse_args(&args(&["--threads", "many"])).is_err());
        assert!(parse_args(&args(&["--chaos"])).is_err());
        assert!(parse_args(&args(&["--chaos", "offline=2.0"])).is_err());
        assert!(parse_args(&args(&["--chaos", "gremlins=0.5"])).is_err());
        assert!(parse_args(&args(&["--checkpoint"])).is_err());
        assert!(parse_args(&args(&["--resume"])).is_err());
        // A flag that no requested artifact reads is an error too.
        for raw in [
            &["--write-golden", "g.json"][..],
            &["table1", "--write-golden", "g.json"],
            &["table3", "--checkpoint", "ck.json"],
            &["table4", "--resume", "ck.json"],
            &["conform", "--checkpoint", "ck.json"],
            &["fig8", "--chaos", "offline=0.05"],
            &["conform", "--chaos", "offline=0.05"],
        ] {
            assert!(parse_args(&args(raw)).is_err(), "{raw:?} must be rejected");
        }
        for raw in [
            &["--checkpoint", "ck.json"][..],
            &["table2", "--resume", "ck.json"],
            &["fig11", "--chaos", "offline=0.05"],
            &["conform", "table4", "--chaos", "offline=0.05"],
        ] {
            assert!(parse_args(&args(raw)).is_ok(), "{raw:?} must be accepted");
        }
    }

    #[test]
    fn parses_conform_and_write_golden() {
        let opts = run(&["conform", "--quick", "--write-golden", "GOLDEN.json"]);
        assert_eq!(opts.artifacts, vec!["conform".to_string()]);
        assert_eq!(opts.write_golden, Some(PathBuf::from("GOLDEN.json")));
        assert!(parse_args(&args(&["--write-golden"])).is_err());
    }

    #[test]
    fn conform_is_not_part_of_all() {
        let opts = run(&[]);
        assert_eq!(opts.artifacts, vec!["all".to_string()]);
        // `main` gates `conform` on an explicit mention, never on "all".
        assert!(!opts.artifacts.iter().any(|a| a == "conform"));
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(
            parse_args(&args(&["--help", "--frobnicate"])).expect("help wins"),
            Parsed::Help
        );
        assert!(usage().contains("--chaos"));
    }
}
