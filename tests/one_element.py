"""One-element checks over the batch entries, for the tests.

The suites and tables bind every check at a batch of draws
(``rep.bind_rows``) and read the closed forms from their plans.  These are
the one-element forms the tests call, with the signatures they had in the
package: a batch of one, or a plan evaluated.
"""

from ellu2.corep import closed_towers, tau_tilde_plan
from ellu2.rep import DET_FORMS_SHAPE, RELATIONS_SHAPE, _det_form_rows, _relation_rows, bind_rows, rows_of


def check_relations(rc, z1, z2, z, mmax=RELATIONS_SHAPE[0], kmax_reverse=RELATIONS_SHAPE[1]):
    """(name, residual) of every relation pair on e_0..e_mmax, or the
    sample's error raised.

    Each residual is ``residual_between`` of the two sides' actions, with the
    largest single path of either side as its floor, worst over m.
    """
    (got,) = bind_rows(_relation_rows, (mmax, kmax_reverse), [(rc, {"z": z, "z1": z1, "z2": z2})])
    return list(rows_of(got).items())


def check_det_forms(rc, z, mmax=DET_FORMS_SHAPE[0]):
    """(name, residual) of each determinant word expansion against its
    scalar action on e_0..e_mmax, or the sample's error raised."""
    (got,) = bind_rows(_det_form_rows, (mmax,), [(rc, {"z": z})])
    return list(rows_of(got).items())


def tau_tilde_closed(N, k, j, m, lam, z, omega, ctx):
    """Coefficient of e_(m+j-k) in the action of the conjugated (k, j) element."""
    return tau_tilde_plan(N, k, j, m, lam, z, omega, ctx).value()


def closed_tower(plan, N, rc, z):
    """A corepresentation tower at level N bound at the one sample (rc, z):
    its reader of ``corep.closed_towers``."""
    return closed_towers(plan, N, [(rc, z)])[0]
