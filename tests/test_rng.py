import math

from demol.rng import RandomStream


def test_known_splitmix_vectors():
    # published output sequence of the splitmix64 mix function for seed 0
    s = RandomStream(0)
    assert [s.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_counter_addressability():
    a = RandomStream(42)
    for _ in range(10):
        a.next_u64()
    b = RandomStream(*a.state())
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_uniform_range_and_determinism():
    s = RandomStream(7)
    values = [s.uniform() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    s2 = RandomStream(7)
    assert values[:50] == [s2.uniform() for _ in range(50)]


def test_normal_moments():
    s = RandomStream(123)
    values = [s.normal() for _ in range(20000)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05
    assert all(math.isfinite(v) for v in values)


def test_sample_indices_is_a_subset_without_replacement():
    s = RandomStream(5)
    for _ in range(100):
        picked = s.sample_indices(10, 4)
        assert len(picked) == 4
        assert len(set(picked)) == 4
        assert picked == sorted(picked)
        assert all(0 <= i < 10 for i in picked)


def test_randrange_bounds():
    s = RandomStream(9)
    assert all(0 <= s.randrange(7) < 7 for _ in range(1000))
