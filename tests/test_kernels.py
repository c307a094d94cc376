"""The kernel package's exports."""

from ppbij import kernels


class TestSelection:
    def test_backend_reexports(self):
        assert kernels.BACKEND == "pure"
        for name in ("row_candidates", "pp_box", "pp_shape",
                     "matrices_weighted", "phi_counts", "phi_inverse_rows",
                     "insert_column", "lis_tail"):
            assert hasattr(kernels, name)
