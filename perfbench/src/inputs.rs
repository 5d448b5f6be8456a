//! Seeded workload inputs. The same `--seed` gives the same inputs; the
//! program only ever sees the generated clips, frames and queries.

use tsdx_data::{generate_dataset, Clip, DatasetConfig};
use tsdx_sdl::{vocab, ActorClause, EgoManeuver, Position, RoadKind, Scenario, MAX_ACTORS};

/// SplitMix64: a small, fixed generator owned by the benchmark, so input
/// streams do not change when the program's RNG does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `n` simulator-rendered clips at the evaluation default (8×32×32). The
/// dataset generator seeds clip `i` with `base_seed + i`, so the workload
/// seed picks a disjoint block of scenes.
pub fn clips(seed: u64, n: usize) -> Vec<Clip> {
    generate_dataset(&DatasetConfig {
        n_clips: n,
        base_seed: 1_000 + seed.wrapping_mul(1_000_003),
        ..DatasetConfig::default()
    })
}

/// One random scenario from the SDL taxonomy (ego maneuver, road, up to
/// `MAX_ACTORS` event-class actors with an optional position). Always
/// valid: only taxonomy event classes are drawn.
pub fn scenario(rng: &mut Rng) -> Scenario {
    let ego = EgoManeuver::from_index(rng.below(EgoManeuver::COUNT));
    let road = RoadKind::from_index(rng.below(RoadKind::COUNT));
    let n_actors = rng.below(MAX_ACTORS + 1);
    let actors = (0..n_actors)
        .map(|_| {
            let (kind, action) = vocab::EVENT_CLASSES[rng.below(vocab::EVENT_CLASSES.len())];
            let position =
                (rng.below(2) == 0).then(|| Position::from_index(rng.below(Position::COUNT)));
            ActorClause { kind, action, position }
        })
        .collect();
    Scenario { ego, actors, road }
}
