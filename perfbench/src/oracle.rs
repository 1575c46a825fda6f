//! The correctness oracle. It re-checks every encoding the program
//! returns with its own code (not the program's `encodings::validate`,
//! which is one of the layers under measurement), recomputes the weight
//! from the strings, and compares certified weights with the committed
//! expected-weights file.

use crate::catalogue::Spec;
use jsonkit::Value;
use std::collections::BTreeMap;

/// The committed answers: certified optimum per problem key, and the
/// `scale` target weight per problem key.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    pub weights: BTreeMap<String, usize>,
    pub targets: BTreeMap<String, usize>,
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = jsonkit::parse(text).map_err(|e| format!("expected weights: {e}"))?;
        let table = |name: &str| -> Result<BTreeMap<String, usize>, String> {
            match doc.get(name) {
                Some(Value::Obj(m)) => m
                    .iter()
                    .map(|(k, v)| {
                        v.as_usize()
                            .map(|w| (k.clone(), w))
                            .ok_or_else(|| format!("expected weights: {name}.{k} is not a count"))
                    })
                    .collect(),
                _ => Err(format!("expected weights: no {name:?} table")),
            }
        };
        Ok(Expected {
            weights: table("weights")?,
            targets: table("targets")?,
        })
    }
}

/// Symplectic form of one string: `(x, z)` bit masks over its qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sym {
    x: u64,
    z: u64,
}

impl Sym {
    fn parse(text: &str) -> Option<(Sym, usize)> {
        let mut s = Sym { x: 0, z: 0 };
        let n = text.chars().count();
        if n == 0 || n > 64 {
            return None;
        }
        for (q, c) in text.chars().enumerate() {
            let bit = 1u64 << q;
            match c {
                'I' => {}
                'X' => s.x |= bit,
                'Z' => s.z |= bit,
                'Y' => {
                    s.x |= bit;
                    s.z |= bit;
                }
                _ => return None,
            }
        }
        Some((s, n))
    }

    fn anticommutes(self, other: Sym) -> bool {
        ((self.x & other.z).count_ones() + (self.z & other.x).count_ones()) % 2 == 1
    }

    fn weight(self) -> usize {
        (self.x | self.z).count_ones() as usize
    }

    fn mul(self, other: Sym) -> Sym {
        Sym {
            x: self.x ^ other.x,
            z: self.z ^ other.z,
        }
    }
}

/// GF(2) rank of rows of up to 128 bits.
fn rank(mut rows: Vec<u128>) -> usize {
    let mut rank = 0;
    for bit in 0..128 {
        let mask = 1u128 << bit;
        let Some(pivot) = (rank..rows.len()).find(|&r| rows[r] & mask != 0) else {
            continue;
        };
        rows.swap(rank, pivot);
        for r in 0..rows.len() {
            if r != rank && rows[r] & mask != 0 {
                rows[r] ^= rows[rank];
            }
        }
        rank += 1;
    }
    rank
}

/// Validates `strings` as an encoding of `spec` and returns its weight
/// under the spec's objective. Checks: `2N` strings on `N` qubits,
/// pairwise anticommutation, GF(2) independence, and, when the spec asks
/// for it, the vacuum (XY-pair) condition.
pub fn measure(spec: &Spec, strings: &[String]) -> Result<usize, String> {
    let n = spec.modes;
    if strings.len() != 2 * n {
        return Err(format!("{} strings for {n} modes", strings.len()));
    }
    let mut syms = Vec::with_capacity(strings.len());
    for s in strings {
        match Sym::parse(s) {
            Some((sym, len)) if len == n => syms.push(sym),
            _ => return Err(format!("malformed string {s:?} for {n} qubits")),
        }
    }
    for i in 0..syms.len() {
        for j in i + 1..syms.len() {
            if !syms[i].anticommutes(syms[j]) {
                return Err(format!("strings {i} and {j} commute"));
            }
        }
    }
    let rows = syms
        .iter()
        .map(|s| s.x as u128 | (s.z as u128) << 64)
        .collect();
    if rank(rows) != syms.len() {
        return Err("strings are not algebraically independent".into());
    }
    if spec.vacuum {
        let xy = |even: &str, odd: &str| {
            even.chars()
                .zip(odd.chars())
                .any(|(a, b)| a == 'X' && b == 'Y')
        };
        for (j, pair) in strings.chunks_exact(2).enumerate() {
            if !xy(&pair[0], &pair[1]) {
                return Err(format!("mode {j} breaks the vacuum (XY-pair) condition"));
            }
        }
    }
    Ok(match &spec.hamiltonian {
        None => syms.iter().map(|s| s.weight()).sum(),
        Some(monomials) => monomials
            .iter()
            .map(|m| {
                m.iter()
                    .fold(Sym { x: 0, z: 0 }, |acc, &i| acc.mul(syms[i as usize]))
                    .weight()
            })
            .sum(),
    })
}

/// The full check of one returned encoding: valid, its claimed weight
/// matches the strings, and a certified weight matches the committed
/// optimum. Returns the measured weight.
pub fn check(
    spec: &Spec,
    strings: &[String],
    claimed: usize,
    certified: bool,
    expected: &Expected,
) -> Result<usize, String> {
    let key = spec.key();
    let weight = measure(spec, strings).map_err(|e| format!("{key}: {e}"))?;
    if weight != claimed {
        return Err(format!(
            "{key}: claimed weight {claimed}, strings weigh {weight}"
        ));
    }
    if certified {
        match expected.weights.get(&key) {
            Some(&w) if w == weight => {}
            Some(&w) => {
                return Err(format!(
                    "{key}: certified weight {weight}, expected optimum {w}"
                ))
            }
            None => return Err(format!("{key}: no expected weight committed")),
        }
    }
    Ok(weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jw(n: usize) -> Vec<String> {
        // Jordan-Wigner in display order (leftmost = highest qubit).
        let mut out = Vec::new();
        for j in 0..n {
            for top in ['X', 'Y'] {
                let s: String = (0..n)
                    .rev()
                    .map(|q| match q.cmp(&j) {
                        std::cmp::Ordering::Greater => 'I',
                        std::cmp::Ordering::Equal => top,
                        std::cmp::Ordering::Less => 'Z',
                    })
                    .collect();
                out.push(s);
            }
        }
        out
    }

    fn expected(key: &str, w: usize) -> Expected {
        let mut e = Expected::default();
        e.weights.insert(key.into(), w);
        e
    }

    #[test]
    fn accepts_a_valid_encoding_and_measures_it() {
        let spec = Spec::majorana(3, true, true);
        let strings = jw(3);
        assert_eq!(measure(&spec, &strings), Ok(2 + 4 + 6));
        // The program's own validator agrees on JW.
        let phased: Vec<pauli::PhasedString> = strings
            .iter()
            .map(|s| pauli::PhasedString::from(s.parse::<pauli::PauliString>().unwrap()))
            .collect();
        assert!(encodings::validate::validate_strings(&phased).is_valid());
    }

    #[test]
    fn rejects_a_tampered_encoding() {
        let spec = Spec::majorana(2, false, false);
        let mut strings = jw(2);
        strings[3] = "XI".into(); // now commutes with string 0 ("IX")
        assert!(measure(&spec, &strings).unwrap_err().contains("commute"));
        let mut strings = jw(2);
        strings.pop();
        assert!(measure(&spec, &strings).is_err());
        let mut strings = jw(2);
        strings[0] = "IQ".into();
        assert!(measure(&spec, &strings).is_err());
    }

    #[test]
    fn rejects_dependence_and_a_broken_vacuum() {
        // Pairwise anticommutation of 2N strings already implies
        // independence, so the rank check is a safety net; test it on
        // rows directly.
        assert_eq!(rank(vec![0b01, 0b10, 0b11]), 2);
        assert_eq!(rank(vec![0b01, 0b10, 0b100]), 3);
        // Swapping a pair's X and Y keeps the algebra but breaks the
        // XY-pair condition.
        let spec = Spec::majorana(1, false, true);
        assert!(measure(&spec, &["X".into(), "Y".into()]).is_ok());
        let err = measure(&spec, &["Y".into(), "X".into()]).unwrap_err();
        assert!(err.contains("vacuum"));
        let relaxed = Spec::majorana(1, false, false);
        assert!(measure(&relaxed, &["Y".into(), "X".into()]).is_ok());
    }

    #[test]
    fn rejects_a_wrong_weight() {
        let spec = Spec::majorana(2, false, true);
        let strings = jw(2); // weight 2 + 4 = 6, the N=2 optimum
        let e = expected(&spec.key(), 6);
        assert_eq!(check(&spec, &strings, 6, true, &e), Ok(6));
        // A claim that disagrees with the strings.
        assert!(check(&spec, &strings, 5, true, &e).is_err());
        // A certificate at a weight other than the committed optimum.
        let wrong = expected(&spec.key(), 5);
        assert!(check(&spec, &strings, 6, true, &wrong).is_err());
        // Uncertified results are not held to the optimum.
        assert!(check(&spec, &strings, 6, false, &wrong).is_ok());
        // A certificate for a problem with no committed answer fails.
        assert!(check(&spec, &strings, 6, true, &Expected::default()).is_err());
    }

    #[test]
    fn hamiltonian_weight_matches_the_program() {
        let spec = Spec::hamiltonian(
            3,
            vec![vec![0, 1], vec![1, 2, 3, 5], vec![2, 4]],
            false,
            false,
        );
        let strings = jw(3);
        let phased: Vec<pauli::PhasedString> = strings
            .iter()
            .map(|s| pauli::PhasedString::from(s.parse::<pauli::PauliString>().unwrap()))
            .collect();
        let fermihedral::Objective::HamiltonianWeight(monos) = spec.problem().objective().clone()
        else {
            unreachable!()
        };
        let theirs = encodings::weight::structure_weight(&phased, &monos);
        assert_eq!(measure(&spec, &strings), Ok(theirs));
    }
}
