"""Koopman-mode reduced-order modelling of rotating shallow-water flow.

Pipeline: integrate the channel flow (``swe``), stack sampled fields
into snapshot matrices (``snapshots``), approximate the evolution
operator spectrum with companion-matrix DMD (``dmd``), and keep the
leading modes by weight until a relative-error threshold holds
(``rom``).  ``cli`` wires it together behind a command line.
"""

from .dmd import (CompanionFit, DmdDecomposition, decompose, eigendecompose,
                  fit_companion, reconstruct)
from .rom import (RomModel, mode_weights, per_time_errors, reduced_model,
                  reduction_percentage, relative_error, select_leading_modes)
from .snapshots import (FieldTag, KsnpWriter, SnapshotMatrix, assemble, export_csv,
                        load, save)
from .swe import (Grid, PhysicalConstants, ScaleSet, SweState, coriolis_at,
                  dimensionalize, geostrophic_velocities, grammeltvedt_height,
                  initial_state, lax_wendroff_step, nondimensionalize,
                  orography, simulate, total_mass, vorticity)

__version__ = "0.1.0"
