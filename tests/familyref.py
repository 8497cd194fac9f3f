"""The rows of the family listing as ``CandidateFamily`` objects.

``enumerate_families`` yields plain ``(offset, counts, size, peak)`` rows.
Tests that read more than those four fields (levels, profiles, spectra,
contraction) build each row's family here, in listing order.
"""

from jdist.families import CandidateFamily, enumerate_families


def candidate_families(params):
    for offset, counts, _, _ in enumerate_families(params):
        yield CandidateFamily(params, offset, counts)
