//! Template element references (paper §III-C, Fig. 2).
//!
//! A template is either an explicit `refs = (…)` list or the paper's
//! Matlab-style range `starts : step : ends`. A range stays symbolic as a
//! [`LaneTemplate`]: its length, bounds and first out-of-range element
//! are computed from the lane values, and its references are produced
//! one at a time by [`LaneTemplate::iter`], never stored.

/// Element references of a template pattern, in reference order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TemplateRefs {
    /// An explicit `refs = (…)` list.
    Explicit(Vec<u64>),
    /// A `starts : step : ends` range, kept as its lanes.
    Lanes(LaneTemplate),
}

/// A range template: lane `i` references `starts[i] + t · step` for
/// `t = 0..=steps`, and every lane takes step `t` before any lane takes
/// step `t + 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LaneTemplate {
    /// First element of each lane.
    pub starts: Vec<u64>,
    /// Elements a lane advances per step.
    pub step: u64,
    /// Steps each lane takes after its start.
    pub steps: u64,
}

impl LaneTemplate {
    /// Number of references, `(steps + 1) · lanes` (saturating).
    pub fn len(&self) -> u64 {
        self.steps
            .saturating_add(1)
            .saturating_mul(self.starts.len() as u64)
    }

    /// Whether the template has no lanes.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The references in order.
    pub fn iter(&self) -> LaneIter<'_> {
        LaneIter {
            lanes: self,
            t: 0,
            lane: 0,
            offset: 0,
        }
    }

    /// The first reference at or above `bound`, in reference order.
    ///
    /// Lane `i` first reaches `bound` at step `⌈(bound − starts[i]) /
    /// step⌉`; the earliest step wins, and within one step the lowest
    /// lane does.
    pub fn first_at_or_above(&self, bound: u64) -> Option<u64> {
        self.starts
            .iter()
            .filter_map(|&s| {
                let t = if s >= bound {
                    0
                } else if self.step == 0 {
                    return None;
                } else {
                    (bound - s).div_ceil(self.step)
                };
                (t <= self.steps).then(|| (t, s + t * self.step))
            })
            .min_by_key(|&(t, _)| t)
            .map(|(_, r)| r)
    }
}

/// Iterator over a [`LaneTemplate`]'s references.
#[derive(Debug, Clone)]
pub struct LaneIter<'a> {
    lanes: &'a LaneTemplate,
    t: u64,
    lane: usize,
    offset: u64,
}

impl Iterator for LaneIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.lane == self.lanes.starts.len() {
            if self.lane == 0 || self.t >= self.lanes.steps {
                return None;
            }
            self.t += 1;
            self.offset += self.lanes.step;
            self.lane = 0;
        }
        let r = self.lanes.starts[self.lane] + self.offset;
        self.lane += 1;
        Some(r)
    }
}

impl TemplateRefs {
    /// Number of references.
    pub fn len(&self) -> u64 {
        match self {
            TemplateRefs::Explicit(refs) => refs.len() as u64,
            TemplateRefs::Lanes(lanes) => lanes.len(),
        }
    }

    /// Whether the template references nothing.
    pub fn is_empty(&self) -> bool {
        match self {
            TemplateRefs::Explicit(refs) => refs.is_empty(),
            TemplateRefs::Lanes(lanes) => lanes.is_empty(),
        }
    }

    /// The references in order, boxed for callers that need one type
    /// for both forms; hot loops match on the variant instead.
    pub fn iter(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        match self {
            TemplateRefs::Explicit(refs) => Box::new(refs.iter().copied()),
            TemplateRefs::Lanes(lanes) => Box::new(lanes.iter()),
        }
    }

    /// The first reference at or above `bound`, in reference order.
    pub fn first_at_or_above(&self, bound: u64) -> Option<u64> {
        match self {
            TemplateRefs::Explicit(refs) => refs.iter().copied().find(|&r| r >= bound),
            TemplateRefs::Lanes(lanes) => lanes.first_at_or_above(bound),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The references as the range syntax defines them, expanded.
    fn expand(l: &LaneTemplate) -> Vec<u64> {
        let mut refs = Vec::new();
        for t in 0..=l.steps {
            for &s in &l.starts {
                refs.push(s + t * l.step);
            }
        }
        refs
    }

    /// A small deterministic stream of lane templates.
    fn lane_cases() -> Vec<LaneTemplate> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        (0..300)
            .map(|_| LaneTemplate {
                starts: (0..1 + next(6)).map(|_| next(60)).collect(),
                step: 1 + next(8),
                steps: next(12),
            })
            .collect()
    }

    #[test]
    fn iter_and_len_match_the_expansion() {
        for l in lane_cases() {
            let refs = expand(&l);
            assert_eq!(l.iter().collect::<Vec<_>>(), refs, "{l:?}");
            assert_eq!(l.len(), refs.len() as u64, "{l:?}");
            let wrapped = TemplateRefs::Lanes(l.clone());
            assert_eq!(wrapped.iter().collect::<Vec<_>>(), refs);
        }
    }

    #[test]
    fn first_at_or_above_matches_a_scan_in_reference_order() {
        for l in lane_cases() {
            let refs = expand(&l);
            for bound in [0, 1, 5, 17, 40, 63, 70, 100, 200] {
                let scan = refs.iter().copied().find(|&r| r >= bound);
                assert_eq!(l.first_at_or_above(bound), scan, "{l:?} bound {bound}");
            }
        }
        // Same step, two lanes out of range: the lower lane comes first
        // even though the higher lane's value is smaller.
        let l = LaneTemplate {
            starts: vec![3, 2],
            step: 4,
            steps: 3,
        };
        assert_eq!(l.first_at_or_above(10), Some(11));
    }

    #[test]
    fn no_lanes_is_empty() {
        let l = LaneTemplate {
            starts: vec![],
            step: 1,
            steps: 5,
        };
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
        assert_eq!(l.iter().next(), None);
        assert_eq!(l.first_at_or_above(0), None);
    }
}
