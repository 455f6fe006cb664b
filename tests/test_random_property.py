"""Property suite over seeded randomised admissible diagrams."""

from cechkit.cochains import cohomology
from cechkit.diagrams import canonicalize, collapse, validate_system
from cechkit.documents import parse_document
from cechkit.gallery import random_admissible
from cechkit.mv import (
    delta_tilde,
    fibred_product,
    inductive_fibred_dim,
    phi_star,
    total_cohomology,
    verify_exact_sequence,
)

N_SEEDS = 100


def diagrams(seeds):
    for seed in seeds:
        parsed = parse_document(random_admissible(seed))
        report = validate_system(parsed.system)
        assert report.valid, (seed, report.violations)
        yield seed, canonicalize(parsed.system)


def test_random_diagrams_validate_and_are_exact():
    failures = []
    for seed, diagram in diagrams(range(N_SEEDS)):
        for q in range(max(diagram.nerve.dim, 0) + 1):
            verdict = verify_exact_sequence(diagram, q)
            if not verdict.exact:
                failures.append((seed, q))
    assert failures == []


def test_random_phi_injective_and_delta_square_zero():
    for seed, diagram in diagrams(range(0, N_SEEDS, 7)):
        q_top = max(diagram.nerve.dim, 0)
        for q in range(q_top + 1):
            assert phi_star(diagram, q).kernel_basis().cols == 0
            if diagram.n_pieces >= 2:
                assert (delta_tilde(diagram, 1, q) @ phi_star(diagram, q)).is_zero()
            for level in range(1, diagram.n_pieces - 1):
                a = delta_tilde(diagram, level, q)
                b = delta_tilde(diagram, level + 1, q)
                assert (b @ a).is_zero()


def test_random_total_cohomology_matches_union():
    for seed, diagram in diagrams(range(0, N_SEEDS, 9)):
        q_top = max(diagram.nerve.dim, 0)
        report = total_cohomology(diagram, q_top)
        assert report.d_square_zero, seed
        assert report.matches, (seed, report)


def test_random_fibred_product_matches():
    for seed, diagram in diagrams(range(0, N_SEEDS, 11)):
        for q in range(min(2, max(diagram.nerve.dim, 0)) + 1):
            fp = fibred_product(diagram, q)
            assert fp.dimension == len(diagram.nerve.simplices_of_dim(q))
            dim, _ = inductive_fibred_dim(diagram, q)
            assert dim == fp.dimension


def test_random_collapse_invariance():
    for seed, diagram in diagrams(range(0, N_SEEDS, 13)):
        if diagram.n_pieces < 3:
            continue
        field = diagram.field
        q_top = max(diagram.nerve.dim, 0)
        base = [cohomology(diagram.nerve, q, field).dimension for q in range(q_top + 1)]
        current = diagram
        while current.n_pieces > 2:
            current = collapse(current, current.piece_ids[:2])
            assert current.nerve.simplices == diagram.nerve.simplices
        after = [cohomology(current.nerve, q, field).dimension for q in range(q_top + 1)]
        assert base == after, seed
