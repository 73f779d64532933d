"""Construction driver for admissible, Galois-stable Lagrangian filtrations.

The driver reduces a polarized semi-abelian module to its abelian quotient
D_B (kept on the module), splits D_B into orthogonal, phi-stable, G-stable
pieces with at most two slopes that are elementary as representations over
Q_p (each keeping the isotypic components that cut it out), solves each
piece by one of two routes, glues, and pulls back over the toric part:

* two slopes {mu, 1-mu}, mu != 1/2: sample rational points of the Lagrangian
  chart atlas inside the descended invariant space until F is transverse to
  both isoclinic components, which forces admissibility;
* one slope (necessarily 1/2): under a homothety action, sample
  base-rational Lagrangians until F is transverse to its twisted-Frobenius
  image; otherwise take the first perturbing element h
  (``isotypic.find_perturbateur``, decided on the character table) and
  sample stable Lagrangians until dim(F cap h F) <= 1, running the seed
  construction only if the samples run out.  Either forces admissibility.

Every property is re-verified independently of the construction, and each
filtration's rank is certified once for all of them: a sample's for both of
its intersection tests (a component's rank is its size; rho(h) F and phi(F)
have F's), the g of the Lagrangian check for admissibility and stability,
the pulled-back F's for containment, the extension node and stability.  The
descent datum f_h = rho(h^{-1}) satisfies its cocycle law exactly by the
table (``groups.core.verify_cocycle``); its targets are the pairs that diagonal stability tests.  A single
piece is D_B in the basis ambient, with D_B's split (``PhiModule.submodule``)
and, for one isotypic component, its block's action: its verdicts are F_B's,
exact admissibility included (an exact ledger is basis-independent); a glue
of pieces is re-verified.  With no toric part F is F_B.  With a toric part
T, F = T + section(F_B) is admissible by the extension node of
``admissible.toric_extension_report``, which reuses the report for
(D_B, F_B); a pure torus takes F = D through the same node.
``adm_mode="sampled"`` samples the full D instead, as a cross-check; exact
mode samples only a piece whose slope repeats
(``admissible_with_fallback``).  F's report comes from
``admissible.filtration_report``, the route ``filtration check`` re-derives
it by (at t = 0, F_B's report is that route's).  Searches are seeded and
budgeted, and every layer certifies its rank decisions at
``linalg.DEFAULT_GUARD``.

The action is validated once, and every stability verdict is decided, on
the rows of the group's generators (``GroupRepresentation.relation_rows``):
a relation that holds for the generators holds for every word in them, at
the relation threshold when the matrices multiplied are integral; when a
generator matrix is not integral, as an induced piece matrix need not be,
every element is tested instead.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..errors import (ValidationError, BudgetExhaustedError,
                      InternalContradictionError, PrecisionError)
from ..padic import linalg as la
from ..padic import scalar as sc
from ..padic.convert import project_to_base
from ..isocrystal.module import PhiModule, SemiAbelianPhiModule
from ..isocrystal.slopes import newton_slopes, isoclinic_decompose
from ..groups.core import GroupRepresentation, verify_cocycle
from ..groups.isotypic import (IsotypicComponent, isotypic_decomposition,
                               is_K_elementary, find_perturbateur,
                               get_character_table, conjugates_over_qp)
from ..symplectic.space import SymplecticSpace, LagrangianSubspace
from ..symplectic.lagrangian import (random_rational_lagrangian,
                                     lagrangian_h_small_intersection)
from .galois import (GaloisSetup, galois_descend, is_diagonally_stable,
                     lift_matrix)
from .admissible import admissible_with_fallback, filtration_report


DEFAULT_SAMPLE_BUDGET = 200


class PieceData:
    def __init__(self, ambient_cols, module, gram, rep, slopes):
        self.ambient_cols = ambient_cols   # columns in the ambient space (K_q)
        self.module = module               # PhiModule in piece coordinates
        self.gram = gram                   # Gram matrix in piece coordinates
        self.rep = rep                     # induced action in piece coordinates
        self.slopes = slopes               # tuple of slopes

    @property
    def dim(self):
        return self.module.n


def induced_rep(rep: GroupRepresentation, cols) -> GroupRepresentation:
    """The action on the span of cols, in the basis cols: rep's own matrices
    on the exact identity (one slope, or kernel bases with identity blocks
    that together fill one), as solve_right(I, m I) is m."""
    k = sc.kernel(rep.field)
    exact_identity = len(cols) == len(cols[0]) and all(
        k.entry(x) == (k.one if i == j else None)
        for i, row in enumerate(cols) for j, x in enumerate(row))
    mats = rep.mats if exact_identity else [
        la.solve_right(cols, la.mat_mul(m, cols)) for m in rep.mats]
    return GroupRepresentation(rep.group, rep.field, mats, faithful=False)


def decompose_polarized(D: PhiModule, J, rep: GroupRepresentation):
    """Orthogonal, phi-stable, G-stable pieces with at most two slopes,
    each elementary over Q_p as a representation."""
    comps = isoclinic_decompose(D)
    by_slope = {s: cols for s, cols in comps}
    used = set()
    blocks = []
    for s in sorted(by_slope):
        if s in used:
            continue
        partner = 1 - s
        used.add(s)
        cols = by_slope[s]
        if partner != s and partner in by_slope:
            used.add(partner)
            cols = la.hstack(cols, by_slope[partner])
        elif partner != s:
            raise ValidationError(f"slope {s} has no dual partner {partner}")
        blocks.append(cols)
    pieces = []
    for cols in blocks:
        pieces.extend(_split_block(D, J, rep, cols))
    total = sum(p.dim for p in pieces)
    if total != D.n:
        raise InternalContradictionError("pieces do not sum to the space")
    return pieces


def _split_block(D, J, rep, cols):
    field = rep.field
    out = []
    current = la.normalize_columns(cols, integral=True)
    space = SymplecticSpace(field, J, validate=False)
    while current and current[0]:
        rep_c = induced_rep(rep, current)
        comps = isotypic_decomposition(rep_c)
        chosen = ([comps[i] for i in _elementary_closure(rep_c, comps, field)]
                  if len(comps) > 1 else comps)
        chosen_cols = chosen[0].basis_cols
        for comp in chosen[1:]:
            chosen_cols = la.hstack(chosen_cols, comp.basis_cols)
        ambient = la.normalize_columns(la.mat_mul(current, chosen_cols),
                                       integral=True)
        # a lone isotypic component has projector I: rep_c acts on ambient
        rep_p = rep_c if len(comps) == 1 else induced_rep(rep, ambient)
        piece = _make_piece(D, space, rep_p, ambient, chosen)
        _validate_piece(piece)
        out.append(piece)
        if len(chosen) == len(comps):
            break
        perp = space.orthogonal_complement(ambient)
        current = la.normalize_columns(
            la.intersection_basis(perp, current), integral=True)
    return out


def _elementary_closure(rep_c, comps, field):
    """Indices of the components spanned by one isotypic component together
    with its duals and Frobenius conjugates over Q_p."""
    ct = get_character_table(rep_c.group)
    orbit_sets = [set(c.orbit) for c in comps]
    chosen, frontier = {0}, [0]
    while frontier:
        targets = set().union(*(conjugates_over_qp(ct, field.p, chi)
                                for chi in orbit_sets[frontier.pop()]))
        for j, orbit in enumerate(orbit_sets):
            if j not in chosen and orbit & targets:
                chosen.add(j)
                frontier.append(j)
    return sorted(chosen)


def _make_piece(D, space, rep_p, ambient, comps):
    # ambient's columns are the bases of comps in order, each only scaled, so
    # the piece's representation rep_p keeps them as blocks of identity columns
    module = D.submodule(ambient)
    gram = space.pair_matrix(ambient, ambient)
    ident = la.identity(rep_p.field, len(ambient[0]))
    parts, start = [], 0
    for c in comps:
        cols = [row[start:start + c.dim] for row in ident]
        parts.append(IsotypicComponent(cols, c.orbit, c.degree, c.dim))
        start += c.dim
    rep_p._isotypic = parts
    slopes = tuple(s for s, _ in newton_slopes(module).pairs)
    return PieceData(ambient, module, gram, rep_p, slopes)


def _validate_piece(piece):
    la.det_valuation(piece.gram)  # nondegenerate restriction
    comps = isotypic_decomposition(piece.rep)
    if not is_K_elementary(piece.rep, comps):
        raise InternalContradictionError(
            "piece is not elementary over Q_p; decomposition bug")


# -- the two per-piece routes -------------------------------------------------------


def two_slope_filtration(piece: PieceData, setup: GaloisSetup, seed: int,
                         budget: int = DEFAULT_SAMPLE_BUDGET,
                         adm_mode: str = "exact"):
    """Lagrangian, admissible, diagonally stable filtration for a two-slope
    piece with slopes {mu, 1-mu}, mu != 1/2."""
    D, J, rep = piece.module, piece.gram, piece.rep
    ext = setup.ext
    comps = isoclinic_decompose(D)
    if len(comps) != 2:
        raise ValidationError("two-slope route requires exactly two slopes")
    (s1, c1), (s2, c2) = comps
    if s1 + s2 != 1 or s1 == Fraction(1, 2):
        raise ValidationError("slopes must pair to {mu, 1-mu}, mu != 1/2")
    rng = random.Random(seed)
    B = galois_descend(rep, setup)
    desc_space = _descended_symplectic(rep.field, ext, J, B)
    c1L, c2L = lift_matrix(ext, c1), lift_matrix(ext, c2)
    for _ in range(budget):
        F = _sample_stable_lagrangian(B, desc_space, ext, rng)
        try:
            r = la.certified_rank(la.transpose(F))
            if la.intersection_dim(F, c1L, r, len(c1[0])) != 0:
                continue
            if la.intersection_dim(F, c2L, r, len(c2[0])) != 0:
                continue
        except PrecisionError:
            continue
        return _finish_piece(piece, setup, F, adm_mode, seed)
    raise BudgetExhaustedError(
        f"two-slope sampling exhausted {budget} tries; retry with a larger "
        "budget or another seed")


def supersingular_filtration(piece: PieceData, setup: GaloisSetup, seed: int,
                             budget: int = DEFAULT_SAMPLE_BUDGET,
                             adm_mode: str = "exact"):
    """Filtration for an isoclinic slope-1/2 piece: base-rational sampling
    against the twisted Frobenius under a homothety action, perturbing
    element route otherwise; that route runs the seed construction only when
    its samples run out, to tell a spent budget from an h that is not
    perturbing (a sampled F is re-verified exactly either way)."""
    D, J, rep = piece.module, piece.gram, piece.rep
    ext = setup.ext
    prof = newton_slopes(D)
    if prof.pairs != ((Fraction(1, 2), D.n),):
        raise ValidationError("supersingular route requires pure slope 1/2")
    rng = random.Random(seed)
    scan = find_perturbateur(rep)
    field = rep.field
    if scan == "homothety-action":
        if not ext.frobenius_ok():
            raise ValidationError(
                "homothety route needs a sigma-stable Eisenstein polynomial")
        space_K = SymplecticSpace(field, J, validate=False)
        for _ in range(budget):
            C = random_rational_lagrangian(space_K, rng)
            FK = C.basis_cols
            img = D.apply_phi(FK)  # phi_tau(F) at the base level
            try:
                if la.intersection_dim(FK, img, C.dim, C.dim) != 0:
                    continue
            except PrecisionError:
                continue
            F = lift_matrix(ext, FK)
            return _finish_piece(piece, setup, F, adm_mode, seed)
        raise BudgetExhaustedError(
            f"homothety-route sampling exhausted {budget} tries")
    # perturbing element route
    h_idx = rep.group.names.index(scan)
    B = galois_descend(rep, setup)
    desc_space = _descended_symplectic(field, ext, J, B)
    hL = lift_matrix(ext, rep.mats[h_idx])
    for _ in range(budget):
        F = _sample_stable_lagrangian(B, desc_space, ext, rng)
        try:
            r = la.certified_rank(la.transpose(F))
            if la.intersection_dim(F, la.mat_mul(hL, F), r, r) > 1:
                continue
        except PrecisionError:
            continue
        return _finish_piece(piece, setup, F, adm_mode, seed, witness=scan)
    lagrangian_h_small_intersection(SymplecticSpace(field, J, validate=False),
                                    rep.mats[h_idx])
    raise BudgetExhaustedError(
        f"perturbing-element sampling exhausted {budget} tries")


def _descended_symplectic(field, ext, J, B):
    G = SymplecticSpace(ext, lift_matrix(ext, J),
                        validate=False).pair_matrix(B, B)
    GK = la.mat_map(G, lambda x: project_to_base(x, ext.base))
    return SymplecticSpace(field, GK, validate=False)


def _sample_stable_lagrangian(B, desc_space, ext, rng):
    C = random_rational_lagrangian(desc_space, rng)
    CL = lift_matrix(ext, C.basis_cols)
    return la.normalize_columns(la.mat_mul(B, CL))


def _finish_piece(piece, setup, F, adm_mode, seed, witness=None):
    """Re-verify all three properties, on the rank g the Lagrangian
    certifies; every route's construction guarantees them."""
    D, J, rep = piece.module, piece.gram, piece.rep
    ext = setup.ext
    space_L = SymplecticSpace(ext, lift_matrix(ext, J), validate=False)
    g = LagrangianSubspace(space_L, F).dim
    report = admissible_with_fallback(D, F, ext, adm_mode, seed, g)
    if not report.verdict:
        raise InternalContradictionError(
            "construction route guarantees admissibility but the check "
            "found a violating submodule")
    stable = is_diagonally_stable(rep, F, setup, rank=g)
    if not stable:
        raise InternalContradictionError(
            "sampled filtration is not diagonally stable")
    return {"filtration": F, "admissibility": report, "stable": True,
            "lagrangian": True, "witness": witness}


# -- gluing and the full driver -----------------------------------------------------


def find_admissible_stable_filtration(sa: SemiAbelianPhiModule,
                                      setup: GaloisSetup,
                                      rep: GroupRepresentation,
                                      seed: int = 0,
                                      budget: int = DEFAULT_SAMPLE_BUDGET,
                                      adm_mode: str = "exact"):
    """The full driver: reduce to the abelian quotient, decompose, solve each
    piece, glue, pull back over the toric part, and return the verified
    filtration with its verdicts and reports.

    A single piece's F_B is ambient F, with ambient invertible, K-rational
    (so fixed by the Galois action) and carrying the piece's pairing and
    action to D_B's; F_B inherits F's Lagrangian and stability verdicts, and
    only a glue of two or more pieces re-verifies them.  An exact ledger of
    dim N, t_H and t_N is basis-independent, so F's exact report is F_B's; a
    sampled one depends on the basis and the seed and is re-decided."""
    D = sa.module
    ext = setup.ext
    t = sa.t_dim
    if t:
        rep.validate(phi_module=D, toric_cols=sa.toric_cols)
    else:
        # D_B is D and repB is rep: one validation covers both
        rep.validate(phi_module=D, gram=sa.gram_B)
    if sa.B_dim == 0:
        FL = lift_matrix(ext, la.identity(D.field, D.n))  # of rank n
        report = filtration_report(sa, FL, ext, adm_mode, seed, D.n, None)
        if not report.verdict:
            raise InternalContradictionError("full filtration on a torus "
                                             "failed admissibility")
        stable = is_diagonally_stable(rep, FL, setup, rank=D.n)
        return {
            "filtration": FL, "admissibility": report,
            "graded": {"toric": True, "quotient": True},
            "stable": stable, "lagrangian": True,
            "cocycle": verify_cocycle(rep.group),
            "descent_targets": stable,
            "pieces": [], "seed": seed, "budget": budget,
        }
    DB = sa.quotient_module()
    repB = _quotient_rep(sa, rep)
    if t:
        repB.validate(phi_module=DB, gram=sa.gram_B)
    pieces = decompose_polarized(DB, sa.gram_B, repB)
    rng = random.Random(seed)
    piece_results = []
    for piece in pieces:
        sub_seed = rng.randrange(1 << 30)
        route = (two_slope_filtration if len(piece.slopes) == 2
                 else supersingular_filtration)
        res = route(piece, setup, sub_seed, budget, adm_mode)
        piece_results.append((piece, res))
    # glue in D_B coordinates
    FB = None
    for piece, res in piece_results:
        ambient_L = lift_matrix(ext, piece.ambient_cols)
        FP = la.mat_mul(ambient_L, res["filtration"])
        FB = FP if FB is None else la.hstack(FB, FP)
    FB = la.normalize_columns(FB)
    # verify the glued quotient filtration (a single piece's verdicts hold)
    glued, gB = len(piece_results) > 1, None
    if glued:
        spaceB = SymplecticSpace(ext, lift_matrix(ext, sa.gram_B),
                                 validate=False)
        gB = LagrangianSubspace(spaceB, FB).dim
    reportB = piece_results[0][1]["admissibility"]
    if glued or reportB.mode != "exact":
        reportB = admissible_with_fallback(DB, FB, ext, adm_mode, seed, gB)
    if not reportB.verdict:
        raise InternalContradictionError("glued quotient filtration failed "
                                         "admissibility re-verification")
    if glued and not is_diagonally_stable(repB, FB, setup, rank=gB):
        raise InternalContradictionError("glued quotient filtration is not "
                                         "diagonally stable")
    if t:
        # pull back over the toric part
        toric_L = lift_matrix(ext, sa.toric_cols)
        section_L = lift_matrix(ext, sa.section_cols)
        F = la.normalize_columns(la.hstack(toric_L, la.mat_mul(section_L, FB)))
        rank_F = la.certified_rank(la.transpose(F))
        report = filtration_report(sa, F, ext, adm_mode, seed, rank_F,
                                   reportB)
        if not report.verdict:
            raise InternalContradictionError("pulled-back filtration failed "
                                             "admissibility")
        graded_toric = (report.contained if report.mode == "extension"
                        else la.subspace_leq(toric_L, F, rank_F))
        if not graded_toric:
            raise InternalContradictionError("toric part is not inside the "
                                             "pulled-back filtration")
        if not is_diagonally_stable(rep, F, setup, rank=rank_F):
            raise InternalContradictionError("full filtration is not stable")
    else:
        # no toric part: the section is the identity, D_B is D and repB is
        # rep, so the pull-back is F_B entry for entry and the verdicts
        # just certified for F_B are the verdicts for F
        F, report, graded_toric = FB, reportB, True
    return {
        "filtration": F,
        "quotient_filtration": FB,
        "admissibility": report,
        "quotient_admissibility": reportB,
        "graded": {"toric": graded_toric, "quotient": bool(reportB.verdict)},
        "stable": True,
        "lagrangian": True,
        "cocycle": verify_cocycle(rep.group),
        "descent_targets": True,
        "pieces": [{"dim": p.dim, "slopes": [str(s) for s in p.slopes],
                    "witness": r["witness"],
                    "admissibility": r["admissibility"].as_dict()}
                   for p, r in piece_results],
        "seed": seed, "budget": budget,
    }


def _quotient_rep(sa: SemiAbelianPhiModule,
                  rep: GroupRepresentation) -> GroupRepresentation:
    if sa.t_dim == 0:
        return rep
    mats = []
    for x in range(rep.group.n):
        coords = la.mat_mul(sa.full_inv,
                            la.mat_mul(rep.mats[x], sa.section_cols))
        mats.append([row[:] for row in coords[sa.t_dim:]])
    return GroupRepresentation(rep.group, rep.field, mats, faithful=False)
