"""The kernel package's exports and the insertion step."""

import pytest

from ppbij import kernels


class TestSelection:
    def test_backend_reexports(self):
        assert kernels.BACKEND == "pure"
        for name in ("row_candidates", "pp_box", "pp_shape",
                     "matrices_weighted", "phi_counts", "phi_inverse_rows",
                     "insert_column", "lis_tail"):
            assert hasattr(kernels, name)


class TestInsertion:
    """kernels.insert_column on column lists, each weakly decreasing from
    the top.
    """

    def test_single_insertion_step(self):
        # fill an empty diagram, then open a new column to its right
        cols = []
        kernels.insert_column(cols, 3, 2)
        assert cols == [[3, 3]]
        kernels.insert_column(cols, 2, 1)
        assert cols == [[3, 3], [2]]

    def test_insertion_picks_leftmost_short_column(self):
        # the plane partition [[3, 3], [3]]: the second column is extended
        cols = [[3, 3], [3]]
        kernels.insert_column(cols, 2, 2)
        assert cols == [[3, 3], [3, 2]]

    def test_invalid_insertion(self):
        with pytest.raises(ValueError, match="invalid insertion"):
            kernels.insert_column([[1, 1]], 2, 3)
