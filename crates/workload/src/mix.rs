//! Seeded multi-client query mixes for the serving layer.
//!
//! A serve mix is a deterministic function of `(workload, templates,
//! clients, queries, seed)`: the same inputs yield the same schedule on
//! every machine and at every thread count, which is what lets
//! `tests/serve_concurrency.rs` compare a parallel run against its serial
//! replay.
//!
//! Parameters are drawn from a deliberately small pool and reused across
//! items — repetition is what makes sharing (and thus call coalescing)
//! possible, mirroring the hot-query skew of real serving workloads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use payless_types::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::QueryWorkload;

/// One query of a serve mix: which client issues it, and what it asks.
#[derive(Debug, Clone)]
pub struct MixItem {
    /// Client session the query belongs to (`0..clients`).
    pub client: usize,
    /// Template index into [`QueryWorkload::templates`].
    pub template: usize,
    /// Parameter values for the template's placeholders.
    pub params: Vec<Value>,
}

/// Build a deterministic serve mix: `queries` items assigned round-robin
/// to `clients`, each drawn from a small seeded pool of instances of the
/// given `templates` (indexes into [`QueryWorkload::templates`]).
///
/// Items are in global submission order; a serial replay processes them
/// `0..queries`, and a K-threaded run pulls them from the same queue.
pub fn serve_mix(
    workload: &dyn QueryWorkload,
    templates: &[usize],
    clients: usize,
    queries: usize,
    seed: u64,
) -> Vec<MixItem> {
    assert!(
        !templates.is_empty(),
        "serve mix needs at least one template"
    );
    assert!(clients > 0, "serve mix needs at least one client");
    let mut rng = StdRng::seed_from_u64(seed);
    // Roughly one distinct instance per three queries: enough variety to
    // exercise the store, enough repetition to make purchases shareable.
    let pool_size = (queries / 3).max(1);
    let pool: Vec<(usize, Vec<Value>)> = (0..pool_size)
        .map(|i| {
            let t = templates[i % templates.len()];
            (t, workload.sample_params(t, &mut rng))
        })
        .collect();
    (0..queries)
        .map(|i| {
            let (template, params) = pool[rng.random_range(0..pool.len())].clone();
            MixItem {
                client: i % clients,
                template,
                params,
            }
        })
        .collect()
}

/// Build a mix whose clients hammer one shared hot pool — the shape that
/// rewards sharing purchases across concurrent queries.
///
/// Unlike [`serve_mix`], the schedule is parameterised by queries *per
/// client*, and two properties hold by construction:
///
/// * the hot pool is drawn from the seed alone, and client `c`'s stream
///   depends only on `(seed, c)` — so raising the client count *adds*
///   streams without changing existing ones;
/// * every client draws from the same pool, so the union of regions the
///   mix touches saturates while total queries grow linearly with the
///   client count. Spend per query therefore falls as clients are added —
///   the curve `tests/serve_concurrency.rs` pins
///   (`spend_per_query_falls_as_clients_share_the_hot_pool`).
///
/// Items are round-robin interleaved into global submission order, so
/// neighbouring queries belong to different clients and overlapping
/// purchases are in flight together, where the coalescer shares them.
pub fn overlapping_mix(
    workload: &dyn QueryWorkload,
    templates: &[usize],
    clients: usize,
    per_client: usize,
    seed: u64,
) -> Vec<MixItem> {
    assert!(
        !templates.is_empty(),
        "overlapping mix needs at least one template"
    );
    assert!(clients > 0, "overlapping mix needs at least one client");
    assert!(per_client > 0, "overlapping mix needs queries per client");
    // One pool slot per query a single client issues: a lone client
    // already revisits instances, and every added client mostly re-treads
    // pool entries some other client has paid for.
    let mut pool_rng = StdRng::seed_from_u64(seed);
    let pool: Vec<(usize, Vec<Value>)> = (0..per_client)
        .map(|i| {
            let t = templates[i % templates.len()];
            (t, workload.sample_params(t, &mut pool_rng))
        })
        .collect();
    let streams: Vec<Vec<MixItem>> = (0..clients)
        .map(|c| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1));
            (0..per_client)
                .map(|_| {
                    let (template, params) = pool[rng.random_range(0..pool.len())].clone();
                    MixItem {
                        client: c,
                        template,
                        params,
                    }
                })
                .collect()
        })
        .collect();
    (0..clients * per_client)
        .map(|i| streams[i % clients][i / clients].clone())
        .collect()
}

/// Replay `mix` on `threads` workers pulling from one global queue — the
/// one driver behind the in-process mix and the socket client. `run` gets
/// each item with its mix index; results come back in mix order whatever
/// the interleaving. The first failure is the error returned, and stops
/// the pull: items already running finish, no further item starts.
pub fn drive<T: Send, E: Send>(
    mix: &[MixItem],
    threads: usize,
    run: impl Fn(usize, &MixItem) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new(mix.iter().map(|_| None).collect());
    let failure: Mutex<Option<E>> = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, mix.len().max(1)) {
            s.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::SeqCst);
                if idx >= mix.len() {
                    return;
                }
                match run(idx, &mix[idx]) {
                    Ok(out) => slots.lock().unwrap_or_else(|e| e.into_inner())[idx] = Some(out),
                    Err(e) => {
                        next.store(mix.len(), Ordering::SeqCst);
                        failure
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .get_or_insert(e);
                        return;
                    }
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }
    Ok(slots
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|slot| slot.expect("no failure, so every slot is filled"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RealWorkload, WhwConfig};

    fn tiny() -> RealWorkload {
        RealWorkload::generate(&WhwConfig {
            stations: 40,
            countries: 4,
            cities_per_country: 3,
            days: 60,
            zips: 60,
            ranks: 100,
            seed: 3,
        })
    }

    #[test]
    fn mix_is_deterministic_and_round_robin() {
        let w = tiny();
        let a = serve_mix(&w, &[0, 1], 4, 24, 48879);
        let b = serve_mix(&w, &[0, 1], 4, 24, 48879);
        assert_eq!(a.len(), 24);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.client, y.client);
            assert_eq!(x.template, y.template);
            assert_eq!(x.params, y.params);
        }
        for (i, item) in a.iter().enumerate() {
            assert_eq!(item.client, i % 4);
        }
    }

    #[test]
    fn mix_repeats_instances() {
        let w = tiny();
        let mix = serve_mix(&w, &[0], 2, 30, 7);
        let mut distinct: Vec<&Vec<Value>> = Vec::new();
        for item in &mix {
            if !distinct.iter().any(|p| **p == item.params) {
                distinct.push(&item.params);
            }
        }
        assert!(
            distinct.len() < mix.len(),
            "a serve mix must repeat instances so purchases can be shared"
        );
    }

    #[test]
    fn overlapping_mix_streams_are_stable_across_client_counts() {
        let w = tiny();
        let small = overlapping_mix(&w, &[0, 1], 2, 12, 48879);
        let big = overlapping_mix(&w, &[0, 1], 8, 12, 48879);
        // Client 0 and 1 issue exactly the same queries (in the same
        // per-client order) whether 2 or 8 clients are running.
        for c in 0..2 {
            let from = |mix: &[MixItem]| -> Vec<(usize, Vec<Value>)> {
                mix.iter()
                    .filter(|m| m.client == c)
                    .map(|m| (m.template, m.params.clone()))
                    .collect()
            };
            assert_eq!(from(&small), from(&big), "client {c} stream changed");
        }
    }

    #[test]
    fn overlapping_mix_shares_instances_across_clients() {
        let w = tiny();
        let mix = overlapping_mix(&w, &[0, 1], 8, 12, 48879);
        assert_eq!(mix.len(), 96);
        for (i, item) in mix.iter().enumerate() {
            assert_eq!(item.client, i % 8, "round-robin interleave");
        }
        let mut distinct: Vec<(usize, &Vec<Value>)> = Vec::new();
        for item in &mix {
            if !distinct
                .iter()
                .any(|(t, p)| *t == item.template && **p == item.params)
            {
                distinct.push((item.template, &item.params));
            }
        }
        // The whole 8-client mix touches at most the pool (one slot per
        // per-client query) — purchases are overwhelmingly shareable.
        assert!(
            distinct.len() <= 12,
            "8 clients must draw from one shared hot pool, saw {} distinct",
            distinct.len()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let w = tiny();
        let a = serve_mix(&w, &[0, 1], 2, 16, 1);
        let b = serve_mix(&w, &[0, 1], 2, 16, 2);
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.params != y.params || x.template != y.template),
            "different seeds should produce different mixes"
        );
    }

    #[test]
    fn drive_returns_results_in_mix_order_and_stops_at_the_first_failure() {
        let mix = serve_mix(&tiny(), &[0, 1], 4, 24, 48879);
        for threads in [1, 4] {
            let ok: Result<Vec<usize>, ()> = drive(&mix, threads, |idx, item| {
                assert_eq!(item.client, mix[idx].client);
                Ok(idx)
            });
            assert_eq!(
                ok.unwrap(),
                (0..24).collect::<Vec<_>>(),
                "{threads} threads"
            );

            // Every item from 8 on fails. A worker that fails pulls nothing
            // more, so whichever of them records first, nothing past the
            // `threads` items that could already be running ever starts.
            let ran = Mutex::new(Vec::new());
            let failed = drive(&mix, threads, |idx, _| {
                ran.lock().unwrap().push(idx);
                if idx >= 8 {
                    Err(idx)
                } else {
                    Ok(())
                }
            });
            let first = failed.unwrap_err();
            let mut ran = ran.into_inner().unwrap();
            ran.sort_unstable();
            assert!((8..8 + threads).contains(&first), "{threads} threads");
            assert_eq!(
                ran[..9],
                (0..=8).collect::<Vec<_>>()[..],
                "{threads} threads"
            );
            assert!(ran.len() <= 8 + threads, "{threads} threads: ran {ran:?}");
        }
    }
}
