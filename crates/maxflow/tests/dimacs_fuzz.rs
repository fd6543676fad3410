//! Hostile input for the DIMACS reader. `from_dimacs` must answer
//! arbitrary text, generated near-DIMACS lines, truncations and
//! single-byte replacements of the committed fixtures, and headers that
//! ask for huge networks with `Ok` or a `ParseDimacsError`, never a
//! panic; and every instance it accepts, written back through
//! `to_dimacs`, must parse to an equal instance.

use proptest::prelude::*;

use ppuf_maxflow::dimacs::{
    from_dimacs, to_dimacs, DimacsInstance, ParseDimacsError, MAX_DIMACS_NODES,
};

/// The committed fixtures, the seeds of the truncations and replacements.
const FIXTURES: [&str; 3] = [
    include_str!("fixtures/clrs.dimacs"),
    include_str!("fixtures/unit_bipartite.dimacs"),
    include_str!("fixtures/unit_grid.dimacs"),
];

/// Capacity tokens for generated arc lines: valid, negative, signed
/// zero, overflowing, non-finite and malformed.
const CAPACITIES: [&str; 12] =
    ["0", "1", "2.5", "3.0972e-8", "1e300", "-1", "-0", "1e309", "inf", "NaN", "banana", ""];

/// Reads `bytes` (lossily decoded: the reader takes a `&str`); a panic
/// fails the property.
fn read(bytes: &[u8]) -> Result<DimacsInstance, ParseDimacsError> {
    from_dimacs(&String::from_utf8_lossy(bytes))
}

/// One generated line. Node ids and counts stay small, so generated text
/// gets past the problem line to the terminal and arc checks.
fn line([kind, x, y, capacity]: [u8; 4]) -> String {
    let (x, y) = (x % 7, y % 7);
    let capacity = CAPACITIES[usize::from(capacity) % CAPACITIES.len()];
    match kind % 7 {
        0 => format!("p max {x} {y}\n"),
        1 => format!("n {x} s\n"),
        2 => format!("n {x} t\n"),
        3 | 4 => format!("a {x} {y} {capacity}\n"),
        5 => format!("c {capacity}\n"),
        _ => format!("{capacity} {x}\n"),
    }
}

/// Reads `bytes` and, if they parse, checks the round trip.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(instance) = read(bytes) {
        let text = to_dimacs(&instance.network, instance.source, instance.sink);
        prop_assert_eq!(from_dimacs(&text), Ok(instance), "round trip through {:?}", text);
    }
    Ok(())
}

/// The headers of the reader's huge-node-count unit test, and the
/// largest network it accepts.
#[test]
fn huge_headers_are_refused_and_the_cap_round_trips() {
    for header in
        ["p max 100000000000 0\n", "p max 4294967297 1\nn 1 s\nn 2 t\n", "p max 1048577 0\n"]
    {
        assert!(read(header.as_bytes()).is_err(), "{header:?}");
    }
    let at_cap = format!("p max {MAX_DIMACS_NODES} 1\nn 1 s\nn {MAX_DIMACS_NODES} t\n");
    assert!(read(at_cap.as_bytes()).is_ok());
    check(at_cap.as_bytes()).expect("the largest accepted network round-trips");
}

#[test]
fn the_fixtures_round_trip() {
    for fixture in FIXTURES {
        assert!(read(fixture.as_bytes()).is_ok());
        check(fixture.as_bytes()).expect("a fixture round-trips");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_dimacs_reader_never_panics(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        lines in proptest::collection::vec(proptest::array::uniform4(any::<u8>()), 0..24),
        fixture in 0..FIXTURES.len(),
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        check(&noise)?;
        check(lines.into_iter().map(line).collect::<String>().as_bytes())?;
        let seed = FIXTURES[fixture].as_bytes();
        check(&seed[..cut % (seed.len() + 1)])?;
        let mut replaced = seed.to_vec();
        replaced[at % seed.len()] = byte;
        check(&replaced)?;
    }
}
