import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import radarvitals as rv
from radarvitals.localize import Detection, DetectionSet
from radarvitals.trackeval import Track


def _det(d, theta_deg, value=1.0):
    return Detection(rv.PolarLocation(d, np.deg2rad(theta_deg)), value)


def _detset(locations, segment):
    return DetectionSet([_det(*loc) for loc in locations], segment, len(locations))


def test_repeated_detection_forms_single_track():
    tracks = []
    for seg in range(10):
        labels = rv.update_tracks(tracks, _detset([(2.0, 10.0)], seg), 0.25)
        assert labels == [0]
    assert len(tracks) == 1
    assert len(tracks[0].records) == 10


def test_nearby_detection_keeps_label():
    tracks = []
    rv.update_tracks(tracks, _detset([(2.0, 0.0)], 0), 0.25)
    labels = rv.update_tracks(tracks, _detset([(2.2, 0.0)], 1), 0.25)
    assert labels == [0]
    assert len(tracks) == 1


def test_distant_detection_opens_new_track():
    tracks = []
    rv.update_tracks(tracks, _detset([(2.0, 0.0)], 0), 0.25)
    labels = rv.update_tracks(tracks, _detset([(2.3, 0.0)], 1), 0.25)
    assert labels == [1]
    assert len(tracks) == 2


def test_greedy_assignment_is_one_to_one():
    tracks = []
    rv.update_tracks(tracks, _detset([(2.0, 0.0), (2.0, 30.0)], 0), 0.25)
    labels = rv.update_tracks(tracks, _detset([(2.05, 0.0), (2.05, 30.0)], 1), 0.25)
    assert sorted(labels) == [0, 1]
    assert all(len(t.records) == 2 for t in tracks)


def test_match_all_five():
    refs = [rv.PolarLocation(d, 0.0) for d in (1.0, 1.5, 2.0, 2.5, 3.0)]
    report = rv.match_and_score(refs, refs)
    assert (report.p, report.p_hat) == (5, 5)
    assert report.tpp == 1.0 and report.fdp == 0.0
    assert report.p_md == report.p_fd == 0
    assert report.mean_location_error == 0.0


def test_match_small_offset():
    report = rv.match_and_score(
        [rv.PolarLocation(2.0, 0.0)], [rv.PolarLocation(2.1, 0.0)]
    )
    assert len(report.matches) == 1
    assert report.matches[0][2] == pytest.approx(0.1, rel=1e-9)


def test_location_error_summaries_come_from_the_matches():
    # three persons matched at 0.1, 0.05 and 0.2 m, one far estimate left over
    refs = [rv.PolarLocation(d, 0.0) for d in (1.0, 2.0, 3.0)]
    ests = [rv.PolarLocation(d, 0.0) for d in (1.1, 2.05, 3.2, 4.5)]
    report = rv.match_and_score(ests, refs)
    assert (report.p_md, report.p_fd) == (0, 1)
    dists = sorted(dist for _, _, dist in report.matches)
    np.testing.assert_allclose(dists, [0.05, 0.1, 0.2], rtol=1e-9)
    assert report.mean_location_error == pytest.approx(np.mean(dists), rel=1e-12)
    assert report.median_location_error == pytest.approx(dists[1], rel=1e-12)


def test_chord_beyond_match_radius():
    # 20 degrees apart at 1 m is a 0.347 m chord: no match
    est = [rv.PolarLocation(1.0, np.deg2rad(30.0))]
    ref = [rv.PolarLocation(1.0, np.deg2rad(50.0))]
    report = rv.match_and_score(est, ref)
    assert report.p_md == 1 and report.p_fd == 1
    assert report.tpp == 0.0 and report.fdp == 1.0


def test_no_references_reports_na():
    report = rv.match_and_score([rv.PolarLocation(1.0, 0.0)], [])
    assert report.tpp is None
    assert report.fdp == 1.0


def test_count_identity_property():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n_ref = int(rng.integers(0, 8))
        n_est = int(rng.integers(0, 8))
        refs = [rv.CartesianLocation(*xy) for xy in rng.uniform(-3, 3, (n_ref, 2))]
        ests = [rv.CartesianLocation(*xy) for xy in rng.uniform(-3, 3, (n_est, 2))]
        report = rv.match_and_score(ests, refs, d_match=float(rng.uniform(0.05, 1.0)))
        assert report.p == report.p_hat + report.p_md - report.p_fd
        if report.tpp is not None:
            assert 0.0 <= report.tpp <= 1.0
        assert 0.0 <= report.fdp <= 1.0


def test_matching_symmetric_under_relabeling():
    rng = np.random.default_rng(33)
    refs = [rv.CartesianLocation(*xy) for xy in rng.uniform(-3, 3, (6, 2))]
    ests = [rv.CartesianLocation(*xy) for xy in rng.uniform(-3, 3, (6, 2))]
    report = rv.match_and_score(ests, refs)
    perm = [3, 1, 4, 0, 5, 2]
    report_p = rv.match_and_score([ests[j] for j in perm], refs)
    pairs = {(ri, ests[ei]) for ri, ei, _ in report.matches}
    pairs_p = {(ri, [ests[j] for j in perm][ei]) for ri, ei, _ in report_p.matches}
    assert pairs == pairs_p


def test_breathing_error_values():
    assert rv.breathing_error(0.3, 0.3) == 0.0
    assert rv.breathing_error(0.27, 0.30) == pytest.approx(-0.10)
    with pytest.raises(ValueError):
        rv.breathing_error(0.3, 0.0)


# Reference copies of the two association loops that tracking and scoring
# carried before they shared one rule; the property below pins the shared
# rule to them.

def _ref_xy(loc):
    if isinstance(loc, rv.PolarLocation):
        loc = rv.polar_to_cartesian(loc)
    return loc.x, loc.y


def _ref_update_tracks(tracks, detections, radius):
    seg = detections.segment_index
    det_xy = [_ref_xy(det.location) for det in detections.detections]
    pairs = []
    for ti, track in enumerate(tracks):
        tx, ty = _ref_xy(track.last_location)
        for di, (x, y) in enumerate(det_xy):
            dist = math.hypot(x - tx, y - ty)
            if dist < radius:
                pairs.append((dist, ti, di))
    pairs.sort()
    used_tracks = set()
    labels = [None] * len(det_xy)
    for _, ti, di in pairs:
        if ti in used_tracks or labels[di] is not None:
            continue
        tracks[ti].records.append((seg, detections.detections[di]))
        labels[di] = tracks[ti].label
        used_tracks.add(ti)
    next_label = max((t.label for t in tracks), default=-1) + 1
    for di, det in enumerate(detections.detections):
        if labels[di] is None:
            tracks.append(Track(next_label, records=[(seg, det)]))
            labels[di] = next_label
            next_label += 1
    return labels


def _ref_matches(estimates, references, d_match):
    ref_xy = [_ref_xy(loc) for loc in references]
    est_xy = [_ref_xy(loc) for loc in estimates]
    pairs = []
    for ri, (rx, ry) in enumerate(ref_xy):
        for ei, (ex, ey) in enumerate(est_xy):
            dist = math.hypot(ex - rx, ey - ry)
            if dist < d_match:
                pairs.append((dist, ri, ei))
    pairs.sort()
    used_ref, used_est, matches = set(), set(), []
    for dist, ri, ei in pairs:
        if ri in used_ref or ei in used_est:
            continue
        matches.append((ri, ei, dist))
        used_ref.add(ri)
        used_est.add(ei)
    return matches


# Quarter-metre grid points give exact distance ties (and distances exactly
# at the radius); free floats give the general case.
_COORD = st.one_of(st.integers(-8, 8).map(lambda v: v / 4), st.floats(-2.0, 2.0))
_LAYOUT = st.lists(st.builds(rv.CartesianLocation, _COORD, _COORD), max_size=7)
_RADIUS = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.25]), st.floats(0.01, 3.0))
_POLAR = st.lists(st.builds(rv.PolarLocation, st.floats(0.0, 3.0), st.floats(-1.5, 1.5)),
                  max_size=7)


@settings(max_examples=150, deadline=None)
@given(segments=st.lists(_LAYOUT, min_size=1, max_size=5), references=_LAYOUT, radius=_RADIUS,
       polar=_POLAR)
@example(  # exact distance ties between tracks and between detections, and
    # pairs exactly at the radius, which never link
    segments=[[rv.CartesianLocation(0.0, 0.0), rv.CartesianLocation(1.0, 0.0)],
              [rv.CartesianLocation(0.5, 0.0), rv.CartesianLocation(0.5, 0.5),
               rv.CartesianLocation(0.5, -0.5), rv.CartesianLocation(0.0, 0.5),
               rv.CartesianLocation(1.75, 0.0)]],
    references=[rv.CartesianLocation(0.5, 0.0), rv.CartesianLocation(1.25, 0.0)],
    radius=0.75,
    polar=[rv.PolarLocation(0.5, 0.0), rv.PolarLocation(0.5, 0.0)],
)
def test_shared_association_rule_matches_the_two_former_loops(segments, references, radius,
                                                              polar):
    tracks, ref_tracks = [], []
    for seg, layout in enumerate(segments):
        dets = DetectionSet([Detection(loc, float(i)) for i, loc in enumerate(layout)],
                            seg, len(layout))
        assert rv.update_tracks(tracks, dets, radius) == _ref_update_tracks(ref_tracks, dets, radius)
        assert [(t.label, t.records) for t in tracks] == [(t.label, t.records) for t in ref_tracks]
    estimates = segments[-1]
    report = rv.match_and_score(estimates, references, radius)
    assert report.matches == _ref_matches(estimates, references, radius)
    # polar estimates against Cartesian references, as the evaluation scores them
    assert rv.match_and_score(polar, references, radius).matches == _ref_matches(
        polar, references, radius)
