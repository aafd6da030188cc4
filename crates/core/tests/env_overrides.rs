//! Pinning test for the environment-variable overrides: `TENSAT_EXTRACTOR`,
//! `TENSAT_EXPLORER`, `TENSAT_SEARCH_THREADS` and `TENSAT_APPLY_THREADS`
//! are parsed *uncached* on every call, by design.
//!
//! Caching (e.g. a `OnceLock`) would read marginally faster, but these
//! overrides exist for harnesses and tests that vary the strategy *within
//! one process* — the forced-smoke CI jobs and the bench binaries re-read
//! them between runs, and a cached value would silently pin the first
//! reading. This test pins the uncached contract: a second call observes a
//! changed variable. If someone adds caching, this fails and the doc
//! comments on [`ExtractionMode::from_env`] / [`ExplorationMode::from_env`]
//! need rewriting along with the harnesses that rely on per-run variation.
//!
//! Everything lives in ONE `#[test]` because environment variables are
//! process-global and the libtest harness runs `#[test]` functions
//! concurrently — splitting these assertions across tests would race.

use tensat_core::{
    apply_threads_from_env, search_threads_from_env, ExplorationConfig, ExplorationMode,
    ExtractionMode,
};

#[test]
fn env_overrides_are_read_uncached() {
    // Start from a clean slate regardless of the invoking shell.
    std::env::remove_var("TENSAT_EXTRACTOR");
    std::env::remove_var("TENSAT_EXPLORER");
    std::env::remove_var("TENSAT_SEARCH_THREADS");
    std::env::remove_var("TENSAT_APPLY_THREADS");

    // Unset → None.
    assert_eq!(ExtractionMode::from_env(), None);
    assert_eq!(ExplorationMode::from_env(), None);
    assert_eq!(search_threads_from_env(), None);
    assert_eq!(apply_threads_from_env(), None);
    assert_eq!(ExplorationConfig::default().apply_threads, None);

    // Set → parsed; a *second* call after mutation must observe the new
    // value (the uncached contract this test pins).
    std::env::set_var("TENSAT_EXTRACTOR", "dag");
    assert_eq!(ExtractionMode::from_env(), Some(ExtractionMode::GreedyDag));
    std::env::set_var("TENSAT_EXTRACTOR", "ilp");
    assert_eq!(ExtractionMode::from_env(), Some(ExtractionMode::Ilp));
    std::env::set_var("TENSAT_EXTRACTOR", "GREEDY");
    assert_eq!(ExtractionMode::from_env(), Some(ExtractionMode::Greedy));
    // Unrecognized names are None, not a panic (harness typos degrade to
    // the configured default).
    std::env::set_var("TENSAT_EXTRACTOR", "simulated-annealing");
    assert_eq!(ExtractionMode::from_env(), None);
    std::env::remove_var("TENSAT_EXTRACTOR");
    assert_eq!(ExtractionMode::from_env(), None);

    // The explorer override ignores surrounding whitespace, and a
    // whitespace-only value counts as unset.
    std::env::set_var("TENSAT_EXPLORER", "  guided  ");
    assert_eq!(ExplorationMode::from_env(), Some(ExplorationMode::Guided));
    std::env::set_var("TENSAT_EXPLORER", "taso");
    assert_eq!(ExplorationMode::from_env(), Some(ExplorationMode::Taso));
    std::env::set_var("TENSAT_EXPLORER", "   ");
    assert_eq!(ExplorationMode::from_env(), None);
    std::env::remove_var("TENSAT_EXPLORER");
    assert_eq!(ExplorationMode::from_env(), None);

    // Thread-count overrides share the same uncached contract (the doc
    // comments on the strategy overrides cite them as the precedent).
    std::env::set_var("TENSAT_SEARCH_THREADS", "4");
    assert_eq!(search_threads_from_env(), Some(4));
    std::env::set_var("TENSAT_SEARCH_THREADS", "2");
    assert_eq!(search_threads_from_env(), Some(2));
    std::env::set_var("TENSAT_SEARCH_THREADS", "0");
    assert_eq!(search_threads_from_env(), None);
    std::env::set_var("TENSAT_SEARCH_THREADS", "many");
    assert_eq!(search_threads_from_env(), None);
    std::env::remove_var("TENSAT_SEARCH_THREADS");
    assert_eq!(search_threads_from_env(), None);

    // The apply override parses the same way and feeds the exploration
    // default; unset, the apply phase follows the search thread count.
    std::env::set_var("TENSAT_APPLY_THREADS", "3");
    assert_eq!(apply_threads_from_env(), Some(3));
    let config = ExplorationConfig::default();
    assert_eq!(config.apply_threads, Some(3));
    assert_eq!(config.resolved_apply_threads(), 3);
    std::env::set_var("TENSAT_APPLY_THREADS", " 1 ");
    assert_eq!(apply_threads_from_env(), Some(1));
    std::env::set_var("TENSAT_APPLY_THREADS", "0");
    assert_eq!(apply_threads_from_env(), None);
    std::env::set_var("TENSAT_SEARCH_THREADS", "2");
    let config = ExplorationConfig::default();
    assert_eq!((config.search_threads, config.apply_threads), (2, None));
    assert_eq!(config.resolved_apply_threads(), 2);
    std::env::remove_var("TENSAT_SEARCH_THREADS");
    std::env::remove_var("TENSAT_APPLY_THREADS");
    assert_eq!(apply_threads_from_env(), None);
}
