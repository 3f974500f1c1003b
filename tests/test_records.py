"""The contract of the package's public records.

Each record keeps its constructor, positional and keyword; its
attribute names; read-only fields (the scan reports excepted); equality,
and a hash where it hashes; and a pickle round trip.  A record rebuilt
with one field changed, through its constructor or its own ``_replace``
where it has one, is validated again.
"""

import math
import pickle

import pytest

from projcox import certify, charts
from projcox.cartan import ReflectionSystem
from projcox.errors import DomainError
from projcox.orbifold import EdgeOrders, OrbifoldSignature, QuadPrismOrders

O3456 = QuadPrismOrders(3, 4, 5, 6)
TABLE = {(i, j): 3 for i in range(1, 5) for j in range(i + 1, 5)}
_STANDARD = charts.build_standard(O3456, 6.0, 5.0, -1.5, -0.7, -2.0)
_ALPHAS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_VECTORS = ((2.0, -1.0, 0.0), (-1.0, 2.0, -1.0), (0.0, -1.0, 2.0))


def _read(record, names):
    return {name: getattr(record, name) for name in names}


#: name: (class, constructor keywords, attribute names, changes whose
#: rebuild must raise with the error raised, hashable)
RECORDS = {
    "EdgeOrders": (
        EdgeOrders, {"size": 4, "orders": TABLE}, ("size", "orders", "mu_table"),
        ({"orders": {(1, 2): 3}}, ValueError), True),
    "QuadPrismOrders": (
        QuadPrismOrders, {"n12": 3, "n23": 4, "n34": 5, "n14": 6},
        ("size", "orders", "mu_table", "n12", "n23", "n34", "n14"),
        ({"n23": 2}, ValueError), True),
    "OrbifoldSignature": (
        OrbifoldSignature, {"chi_underlying": 1, "cone_orders": (2,), "corner_orders": (3, 3),
                            "full_boundary_count": 0},
        ("chi_underlying", "cone_orders", "corner_orders", "full_boundary_count"),
        ({"full_boundary_count": -1}, ValueError), True),
    "ReflectionSystem": (
        ReflectionSystem, {"alphas": _ALPHAS, "vectors": _VECTORS, "cartan": None},
        ("alpha_rows", "vector_rows", "cartan"),
        ({"vectors": ((math.inf, -1.0, 0.0),) + _VECTORS[1:]}, ValueError), True),
    "GeneralChartParams": (
        charts.GeneralChartParams,
        {"orders": O3456, "t13": 9.0, "t24": 5.0, "v23": -2.0, "v24": -0.5, "v34": -3.0},
        ("orders", "t13", "t24", "v23", "v24", "v34"),
        ({"t13": 3.0}, DomainError), True),
    "ConcurrentChartParams": (
        charts.ConcurrentChartParams,
        {"orders": O3456, "v12": -1.3, "v23": -0.7, "v14": -2.1, "v34": -0.4, "v44": 0.5},
        ("orders", "v12", "v23", "v14", "v34", "v44"),
        ({"v44": math.nan}, DomainError), True),
    "StandardChartPoint": (
        charts.StandardChartPoint,
        _read(_STANDARD, ("orders", "t13", "t24", "v23", "v24", "v34", "a1", "a2", "a3",
                          "a4_v44", "cartan")),
        ("orders", "t13", "t24", "v23", "v24", "v34", "a1", "a2", "a3", "a4_v44", "cartan"),
        None, True),
    "SimplexChartParams": (
        charts.SimplexChartParams,
        {"n": 3, "orders": EdgeOrders(4, TABLE),
         "free": {(2, 3): -1.0, (2, 4): -2.0, (3, 4): -0.5}},
        ("n", "orders", "free", "parameter_count"),
        ({"free": {(2, 3): -1.0, (2, 4): 2.0, (3, 4): -0.5}}, DomainError), False),
    "DetLocusReport": (
        certify.DetLocusReport,
        _read(certify.det_locus_check(O3456, 20, 0), ("samples", "seed", "min_abs_det")),
        ("samples", "seed", "min_abs_det"), None, False),
    "ConcurrentScanReport": (
        certify.ConcurrentScanReport,
        _read(certify.concurrent_t_scan(O3456, 3),
              ("grid_points_per_axis", "min_product", "argmin", "product_at_all_minus_one")),
        ("grid_points_per_axis", "min_product", "argmin", "product_at_all_minus_one"),
        None, False),
    "StandardScanReport": (
        certify.StandardScanReport,
        _read(certify.standard_scan(O3456, 6.0, 6.0, 50, 0),
              ("samples", "valid_samples", "seed", "box", "t13", "t24", "min_a4_v44",
               "max_a4_v44", "argmin", "histogram")),
        ("samples", "valid_samples", "seed", "box", "t13", "t24", "min_a4_v44",
         "max_a4_v44", "argmin", "histogram", "summary"),
        None, False),
}
#: the scan reports, results rather than inputs: the contract leaves open
#: whether their fields can be assigned
_REPORTS = {"DetLocusReport", "ConcurrentScanReport", "StandardScanReport"}


def _build(name, **changes):
    cls, kwargs, *_ = RECORDS[name]
    return cls(**{**kwargs, **changes})


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_built_by_keyword_or_position_and_reads_back(name):
    cls, kwargs, attributes, *_ = RECORDS[name]
    record = _build(name)
    assert type(record) is cls
    assert cls(*kwargs.values()) == record
    for attribute in attributes:
        getattr(record, attribute)
    for key, value in kwargs.items():
        if key in attributes and value is not None:
            assert getattr(record, key) == value, key


@pytest.mark.parametrize("name", sorted(set(RECORDS) - _REPORTS))
def test_record_fields_are_read_only(name):
    record = _build(name)
    for attribute in RECORDS[name][2]:
        with pytest.raises(AttributeError):
            setattr(record, attribute, getattr(record, attribute))


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_compare_and_hash_equal(name):
    first, second = _build(name), _build(name)
    assert first == second and not first != second
    if RECORDS[name][4]:
        assert hash(first) == hash(second)


def test_records_of_different_values_differ():
    assert _build("GeneralChartParams") != _build("GeneralChartParams", t13=9.5)
    assert _build("EdgeOrders") != _build("EdgeOrders", orders={**TABLE, (1, 2): 4})
    assert QuadPrismOrders(3, 3, 3, 3) != EdgeOrders(4, QuadPrismOrders(3, 3, 3, 3).orders)


@pytest.mark.parametrize("name", ["EdgeOrders", "QuadPrismOrders"])
def test_order_tables_hold_a_read_only_mapping(name):
    record = _build(name)
    with pytest.raises(TypeError):
        record.orders[(1, 2)] = 7
    with pytest.raises(TypeError):
        del record.orders[(1, 2)]
    copied = dict(record.orders)
    copied[(1, 2)] = 7
    assert record.orders[(1, 2)] == 3 and record == _build(name)
    assert "mappingproxy" not in repr(record)


def test_reflection_system_compares_its_rows_not_its_caches():
    first, second = _build("ReflectionSystem"), _build("ReflectionSystem")
    assert first.alphas.shape == (3, 3) and first.sign_failures == ([], [], [])
    assert first == second and hash(first) == hash(second)
    assert pickle.loads(pickle.dumps(first)) == second


@pytest.mark.parametrize("name", RECORDS)
def test_record_survives_a_pickle_round_trip(name):
    record = _build(name)
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record)
    assert again == record


@pytest.mark.parametrize("name", [n for n, spec in RECORDS.items() if spec[3]])
def test_a_rebuilt_record_is_validated_again(name):
    changes, error = RECORDS[name][3]
    with pytest.raises(error):
        _build(name, **changes)
    record = _build(name)
    if hasattr(record, "_replace"):
        with pytest.raises(error):
            record._replace(**changes)
        same = record._replace(**{key: getattr(record, key) for key in changes})
        assert type(same) is type(record) and same == record


def test_scan_summary_keys_keep_their_order():
    summary = _build("StandardScanReport").summary
    assert list(summary) == ["samples", "valid_samples", "seed", "box", "t13", "t24",
                             "min_a4_v44", "max_a4_v44", "argmin", "histogram"]
    assert summary["box"] == list(certify.STANDARD_SCAN_BOX)
    assert list(summary["argmin"]) == ["v23", "v24", "v34"]
