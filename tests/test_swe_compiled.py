"""The solver oracles of ``test_swe_oracle`` and ``test_swe_halo`` on the
compiled sub-step of ``_lw.c``.

Those modules run their tests on the numpy step; the same test functions,
imported here, run on the compiled entry the loader binds and, in
``TestPortableEntry``, on the portable entry ``lw_step`` where the
loader binds the AVX2 one.  Each must match the reference exactly: the
edge grids of ``test_swe_halo.GRIDS``, orography, CFL rejection and the
depth collapse with the same exception, time and message.  They skip only
where no C compiler exists (and the portable run where the CPU has no
AVX2, since the loader binds the portable entry there).
"""

import pytest

from test_swe_halo import (  # noqa: F401  (collected here as well)
    test_simulate_matches_reference as test_halo_simulate_matches_reference,
    test_step_matches_reference as test_halo_step_matches_reference,
)
from test_swe_oracle import (  # noqa: F401
    test_simulate_matches_reference as test_oracle_simulate_matches_reference,
    test_step_from_nonzero_wall_velocity_matches_reference as
    test_oracle_step_from_nonzero_wall_velocity_matches_reference,
)

pytestmark = pytest.mark.usefixtures("compiled_step")


@pytest.mark.usefixtures("portable_step")
class TestPortableEntry:
    test_halo_simulate_matches_reference = staticmethod(test_halo_simulate_matches_reference)
    test_halo_step_matches_reference = staticmethod(test_halo_step_matches_reference)
    test_oracle_simulate_matches_reference = staticmethod(
        test_oracle_simulate_matches_reference)
    test_oracle_step_from_nonzero_wall_velocity_matches_reference = staticmethod(
        test_oracle_step_from_nonzero_wall_velocity_matches_reference)
