import numpy as np
import pytest

from circkde.rng import derive_seed, make_rng


class TestKeys:
    @pytest.mark.parametrize("keys", [(1.7,), (3, 1.0), (np.float64(2.0),), ("1",)])
    def test_non_integer_key_rejected(self, keys):
        # int() would truncate 1.7 to 1 and give key (1,)'s stream.
        with pytest.raises(TypeError):
            make_rng(*keys)
        with pytest.raises(TypeError):
            derive_seed(*keys)

    def test_numpy_integers_as_python_ints(self):
        keys = (np.int64(20260810), np.uint64(7), np.int32(-3))
        plain = tuple(int(k) for k in keys)
        assert derive_seed(*keys) == derive_seed(*plain)
        np.testing.assert_array_equal(make_rng(*keys).random(4), make_rng(*plain).random(4))

    def test_keys_wrap_modulo_two_to_the_64(self):
        assert derive_seed(-1, 5) == derive_seed(2**64 - 1, 5)
        assert derive_seed(2**64 + 5) == derive_seed(5)
