"""The paper's closing claim: every implementation returns identical output.

FSA-BLAST is the oracle; cuBLASTP (all three extension strategies),
CUDA-BLASTP, GPU-BLASTP and NCBI-BLAST must reproduce its alignments
exactly — scores, coordinates, and rendered alignment strings.
"""

import pytest

from repro.baselines import CudaBlastp, FsaBlast, GpuBlastp, NcbiBlast
from repro.cublastp import CuBlastp, CuBlastpConfig, ExtensionMode

from tests.conftest import alignment_keys


@pytest.fixture(scope="module")
def oracle(small_query, small_params, small_db):
    result = FsaBlast(small_query, small_params).search(small_db)
    assert result.num_reported >= 1, "workload must produce alignments"
    return result


class TestOutputIdentity:
    def test_ncbi_blast_identical(self, oracle, small_query, small_params, small_db):
        res = NcbiBlast(small_query, small_params, threads=4).search(small_db)
        assert alignment_keys(res.alignments) == alignment_keys(oracle.alignments)

    @pytest.mark.parametrize("mode", list(ExtensionMode))
    def test_cublastp_identical_all_strategies(
        self, oracle, small_query, small_params, small_db, mode
    ):
        cb = CuBlastp(small_query, small_params, CuBlastpConfig(extension_mode=mode))
        res = cb.search(small_db)
        assert alignment_keys(res.alignments) == alignment_keys(oracle.alignments)

    def test_cublastp_alignment_strings_identical(
        self, oracle, small_query, small_params, small_db
    ):
        res = CuBlastp(small_query, small_params).search(small_db)
        for a, b in zip(res.alignments, oracle.alignments):
            assert a.aligned_query == b.aligned_query
            assert a.aligned_subject == b.aligned_subject
            assert a.midline == b.midline
            # Bit-exact identity IS this file's contract: both sides ran the
            # same statistics code, so even the last ulp must agree.
            assert a.evalue == b.evalue
            assert a.bit_score == b.bit_score

    def test_cuda_blastp_identical(self, oracle, small_query, small_params, small_db):
        res = CudaBlastp(small_query, small_params).search(small_db)
        assert alignment_keys(res.alignments) == alignment_keys(oracle.alignments)

    def test_gpu_blastp_identical(self, oracle, small_query, small_params, small_db):
        res = GpuBlastp(small_query, small_params).search(small_db)
        assert alignment_keys(res.alignments) == alignment_keys(oracle.alignments)

    def test_readonly_cache_toggle_does_not_change_output(
        self, oracle, small_query, small_params, small_db
    ):
        """Fig. 17's ablation is performance-only: functional output is
        unchanged with the cache disabled."""
        cb = CuBlastp(
            small_query, small_params, CuBlastpConfig(use_readonly_cache=False)
        )
        res = cb.search(small_db)
        assert alignment_keys(res.alignments) == alignment_keys(oracle.alignments)

    @pytest.mark.parametrize("num_bins", [32, 256])
    def test_bin_count_does_not_change_output(
        self, oracle, small_query, small_params, small_db, num_bins
    ):
        cb = CuBlastp(small_query, small_params, CuBlastpConfig(num_bins=num_bins))
        res = cb.search(small_db)
        assert alignment_keys(res.alignments) == alignment_keys(oracle.alignments)

    def test_matrix_mode_does_not_change_output(
        self, oracle, small_query, small_params, small_db
    ):
        for mode in ("pssm", "blosum"):
            cb = CuBlastp(small_query, small_params, CuBlastpConfig(matrix_mode=mode))
            res = cb.search(small_db)
            assert alignment_keys(res.alignments) == alignment_keys(oracle.alignments)
