"""Pinned sha256 digests of every command's ``--report`` bytes.

Optimisations must leave every structured report byte-identical.  This
module runs each command on the gallery families over F_2, F_3 and F_5
and on seeded ``random_admissible`` documents, and compares the sha256
of the report file with the digest recorded below.  A pair that writes
no report (an input error) is pinned as ``None``.

To print a fresh table, run ``PYTHONPATH=src python tests/test_report_digests.py``.
Only regenerate the table for a change that is meant to alter reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from cechkit import fplinalg
from cechkit.cli import main
from cechkit.documents import canonical_json
from cechkit.gallery import gallery_document

COMMANDS = ("validate", "cohomology", "mv", "fibred", "bundles", "count",
            "collapse-check", "refine-check")

GALLERY_FAMILIES = (("two_origin_line", {}), ("branching_line_n", {"n": 2}),
                    ("branching_line_n", {"n": 3}), ("bug_eyed_circle", {}),
                    ("three_circles", {}))

RANDOM_SEEDS = range(30)


def documents() -> dict[str, dict]:
    docs = {}
    for field in (2, 3, 5):
        for name, kwargs in GALLERY_FAMILIES:
            suffix = "".join(f"-{k}{v}" for k, v in kwargs.items())
            docs[f"{name}{suffix}-F{field}"] = gallery_document(name, field=field, **kwargs)
    for seed in RANDOM_SEEDS:
        field = (2, 3, 5)[seed % 3]
        docs[f"random{seed}-F{field}"] = gallery_document("random_admissible", field=field, seed=seed)
    return docs


def reports(workdir: Path, docs: dict[str, dict], commands: tuple[str, ...]) -> dict[str, bytes | None]:
    """Each command's report bytes on each document, keyed "document|command"; None for no report."""
    out: dict[str, bytes | None] = {}
    for doc_name, doc in docs.items():
        path = workdir / f"{doc_name}.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        for command in commands:
            report = workdir / f"{doc_name}.{command}.report.json"
            report.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(["--report", str(report), command, str(path)])
            out[f"{doc_name}|{command}"] = report.read_bytes() if report.exists() else None
    return out


def report_digests(workdir: Path) -> dict[str, str | None]:
    return {key: hashlib.sha256(data).hexdigest() if data is not None else None
            for key, data in reports(workdir, documents(), COMMANDS).items()}


def test_reports_match_pinned_digests(tmp_path):
    got = report_digests(tmp_path)
    assert got.keys() == PINNED.keys()
    changed = sorted(k for k in PINNED if got[k] != PINNED[k])
    assert not changed, changed


def with_doubled_refinement(doc: dict) -> dict:
    """doc with a refinement block that splits every label v into v.0 and v.1.

    Each coarse simplex becomes the simplex on the doubles of its labels,
    so the fine nerve of each piece maps onto the coarse one.
    """
    def double(labels):
        return [f"{v}.{k}" for v in labels for k in (0, 1)]

    pieces = [{"id": piece["id"], "simplices": [double(s) for s in piece["simplices"]]} for piece in doc["pieces"]]
    gluings = [{"i": g["i"], "j": g["j"], "pairs": [[f"{x}.{k}", f"{y}.{k}"] for x, y in g["pairs"] for k in (0, 1)]}
               for g in doc["gluings"]]
    labels = sorted({v for piece in doc["pieces"] for s in piece["simplices"] for v in s})
    return {**doc, "refinement": {"fine": {"pieces": pieces, "gluings": gluings},
                                  "map": [[f"{v}.{k}", v] for v in labels for k in (0, 1)]}}


ODD_FIELD_COMMANDS = ("cohomology", "mv", "fibred", "collapse-check", "refine-check")


def larger_odd_field_documents() -> dict[str, dict]:
    """Documents past the pinned ones' sizes, each with a doubled refinement:
    8 branching lines, and 5 and 6 random pieces."""
    docs = {}
    for field in (3, 5):
        docs[f"branching_line_n-n8-F{field}"] = gallery_document("branching_line_n", field=field, n=8)
        for n, seed in ((5, 3), (6, 1)):
            docs[f"random-n{n}-seed{seed}-F{field}"] = gallery_document("random_admissible", field=field, n=n,
                                                                        seed=seed)
    return {name: with_doubled_refinement(doc) for name, doc in docs.items()}


def test_odd_field_reports_match_those_of_the_dense_oracle(tmp_path, monkeypatch):
    from conftest import patch_bindings
    from dense import dense, dense_echelon
    docs = larger_odd_field_documents()
    shipped = reports(tmp_path, docs, ODD_FIELD_COMMANDS)
    assert None not in shipped.values()
    calls = []

    def oracle(a):
        calls.append(a.shape)
        return dense_echelon(dense(a), a.field.p)

    patch_bindings(monkeypatch, fplinalg, "echelon", oracle)
    assert reports(tmp_path, docs, ODD_FIELD_COMMANDS) == shipped
    assert calls


PINNED: dict[str, str | None] = {
    'two_origin_line-F2|validate': 'cef3d15c40073638d13dcb2ae56dd4afe4f8a0b1a8c96324d056f36644b7e22a',
    'two_origin_line-F2|cohomology': 'b8eaa9a777857324d33ce5343c2ec7e9ebd3d0b1511cfea03c7b9c0cf1bc3762',
    'two_origin_line-F2|mv': 'cfc743f6a672bcd8139bd3ba8653e0453a75f826289057e7e7bb3ce382c8fd18',
    'two_origin_line-F2|fibred': '7e2858c61848e6cd5f699baee3b8fee305f7924a48cea7390d4379e1c6a06b4a',
    'two_origin_line-F2|bundles': '3a17fc7b24f7e3e9d81eb2ec2cc59ff170437bff1d9061f9a5fee11138763e3e',
    'two_origin_line-F2|count': '374ee872717825e9100fefd7a1e1ff600aec32c26413abd570dad50f9677afa2',
    'two_origin_line-F2|collapse-check': 'e278826783d36866407e0bc201c971aac5fa26d67680764b6fb6f9fd086c4551',
    'two_origin_line-F2|refine-check': 'e4a777122505aad86370a967c89fa9b87adac63c5bb0e5a7e6977204fb2a6b39',
    'branching_line_n-n2-F2|validate': 'accde058639f4a9be961a781418bc80752deb60994ff9fce05cbb9c20a3281b2',
    'branching_line_n-n2-F2|cohomology': '35e69642cc9ef5eb7f3ae5e1425483f595e75a8bb379f6245ee6d7d43e8ae68b',
    'branching_line_n-n2-F2|mv': 'cf38e7d9a47c5e26a455fb41716a4843787d94cd673716580e72eda3f0710186',
    'branching_line_n-n2-F2|fibred': '38ccfbc54629f59be2567adbf040fcfb6031623be893a16eeaf6ef160d67bc66',
    'branching_line_n-n2-F2|bundles': '4f8b0c890554530c1a70726a6949fa8b549c572a77e31a3fc6d89e776f3b7190',
    'branching_line_n-n2-F2|count': 'ef7e6a2b5d43ac2b41f93a00bae4f9346e578b472161e3509f78689b9334bc39',
    'branching_line_n-n2-F2|collapse-check': '688011a5574977303e68f6628706bc3497d766574377d6815fde6ce812c6ffac',
    'branching_line_n-n2-F2|refine-check': None,
    'branching_line_n-n3-F2|validate': '1eda33218d4d23e3a909e4446acd0049333d479b78269eefff12cc0ea97ce0e0',
    'branching_line_n-n3-F2|cohomology': 'c00a9db724b63d76bb5861bf8116a30dd0c697454488d0cf67d4ac6721839de2',
    'branching_line_n-n3-F2|mv': '35aebde2b7af018c07200045af9bedeac9d1a58d788fa6d4818f00bcc04b42d6',
    'branching_line_n-n3-F2|fibred': '8f10b7fe1478445c57be37cf0e57a96384218abf86607ba3d86232cb7d528ed1',
    'branching_line_n-n3-F2|bundles': '1465b5a9b4d2ac1726b72177963d16641ed9ed1965266c1a7ab4fef48dbd011d',
    'branching_line_n-n3-F2|count': 'dfd81afee91ed64f2e891887caca9d9df4ddb2fd3a9b1b8f2ae9afc477587f5c',
    'branching_line_n-n3-F2|collapse-check': '6b985fedfd443acbb4d398cc4022c69eaaafc21d42875e45460bee3bb06bb200',
    'branching_line_n-n3-F2|refine-check': None,
    'bug_eyed_circle-F2|validate': 'f82dde5907ae641c1777a7a83c02e076cce4d00f3897416e48ecd8a08b525658',
    'bug_eyed_circle-F2|cohomology': 'c239782591e4725233682287a5206ac0e8b0bee28e9e09d710ec8f5610a97498',
    'bug_eyed_circle-F2|mv': 'c3e1e3d6af87ada168f5c7c60f6c2fb9143a96fceb3f6be6febf0662b1a9207d',
    'bug_eyed_circle-F2|fibred': '26474e17c8d742b49567418bf59c9f7fa026b81ada3bb4561fc097f4c770530c',
    'bug_eyed_circle-F2|bundles': '5c6c971f3c5275edfb711788f5e47f814b08cf36b3549b9afee53df69d4d2b7c',
    'bug_eyed_circle-F2|count': '1856696e0aca3ccfadd89d2f8ff416ac1c1e4e472d08ce44e8cafbcd75832a2d',
    'bug_eyed_circle-F2|collapse-check': '36d068bf0dd6ee9bf28f33676092147cf037ed9167b6caf84ae68a41a23cb295',
    'bug_eyed_circle-F2|refine-check': '62dca8be8d9a74b65493b4b5c636f0af018908e09e5e6e09fe76314b1f2236e4',
    'three_circles-F2|validate': '466c39959dcba5d8f4e03b9031762001e309f3cef9169e69dceb77a61cda18ce',
    'three_circles-F2|cohomology': 'eca463f9bd552e3cebc53319742dcee671ff7fb8a8f45fcbd422882a862aa488',
    'three_circles-F2|mv': '594896a349d006020c2f2cceee2c60a06eb6b4556c4398f2579fcb0471b6c1cf',
    'three_circles-F2|fibred': '78d8f22f39b10552901faf15d850b11b9fde837185b67500b3f9b1fd9774f18e',
    'three_circles-F2|bundles': '6e192e0352600bc9a46068f21c70a50ea1476f4f11beea27848fb040212eb5dd',
    'three_circles-F2|count': 'dfb403dc42be121a12bb91289ef917674173a0caa728d3f7209741a70ac88410',
    'three_circles-F2|collapse-check': '3be4d9cf990b6f98a8f3520d3b71438dc60678c85aebb928917c32fbdeb83ae2',
    'three_circles-F2|refine-check': None,
    'two_origin_line-F3|validate': '9e12940d48a9bd987c0de72d3883ea22ec214287c75e79ac357888b3c560dbb7',
    'two_origin_line-F3|cohomology': '7eb48c6facc4443445d9ba4ea67c574f4fa6d04165019b826c5f65635ee45942',
    'two_origin_line-F3|mv': '016b9b1db3455bc79777d6620678e0a884526a53fcd6ad6ec50126ef9d56c299',
    'two_origin_line-F3|fibred': '20ede4319855273eddfa63d9cddd2f422016ccd95989f19e421b686c99afea6d',
    'two_origin_line-F3|bundles': None,
    'two_origin_line-F3|count': None,
    'two_origin_line-F3|collapse-check': '493b06255ac793f92baef2e33ac6b9fd9ef09b7f6c999ebbcde5f2a6c3958e41',
    'two_origin_line-F3|refine-check': 'da5dd7101b5f383f8aabba7d466864160fb3b8515e1dd4815ed81b0dcd68a4c5',
    'branching_line_n-n2-F3|validate': '65a0e48f91c7c3b54c6609fb82b5321df13f00f8ff4700a4249bb980a0726493',
    'branching_line_n-n2-F3|cohomology': '361b7e1d874a6af4afc970656ee1f7e0992612238405b5a05a0525afa20754c6',
    'branching_line_n-n2-F3|mv': '99e6ba6f6d8119eee9191347c31241a96fb0851658dfb3e5ae0cca08dfe33402',
    'branching_line_n-n2-F3|fibred': 'f699e20ba899cbb815c0db9a4a50d8c7d09e42c6538e731fb4298a3ef355d26c',
    'branching_line_n-n2-F3|bundles': None,
    'branching_line_n-n2-F3|count': None,
    'branching_line_n-n2-F3|collapse-check': '01e8a28f47c6cc4b494a9cf635ce0d794c33e41c83fcb64337d68b3952bc93dd',
    'branching_line_n-n2-F3|refine-check': None,
    'branching_line_n-n3-F3|validate': '1ab44a6efdd487efdd6651dcc4011d4ddef9113f2d358211bb9f3b0d9d7d01da',
    'branching_line_n-n3-F3|cohomology': '1f30de2692f776a08c454c10f050cca621ea75b1e4c75c66504f70544eaf00ad',
    'branching_line_n-n3-F3|mv': '1ac588487dd9cbc00ca14fb9a4aa4119ece5c9d3fb89a02279bfb52354a51a33',
    'branching_line_n-n3-F3|fibred': '8c41a02c091c1bf6d1241707cf073591527508b0c01c7bfb6bceb6b6273b200a',
    'branching_line_n-n3-F3|bundles': None,
    'branching_line_n-n3-F3|count': None,
    'branching_line_n-n3-F3|collapse-check': 'ab7760b541d199b93903809630c4523aa793111ae7b7cb8c05c32b8206339b78',
    'branching_line_n-n3-F3|refine-check': None,
    'bug_eyed_circle-F3|validate': 'bc6be2be7fe1dc79c2696c1f2ea13a67767eb315ab8fef758dea645231738ba4',
    'bug_eyed_circle-F3|cohomology': '28c96a34b0fbfcd8fa31f84a867c30e6812d80f5b4b190f5d1f9c8516c01e89b',
    'bug_eyed_circle-F3|mv': '9cf021bb0e542a9f666fcba8935549785ff1ddb27f398a9c38ec725ec2cf2cd3',
    'bug_eyed_circle-F3|fibred': '9177277a1f6b12a93b841bea8aefb8faca6cd0a9c649245bcf99e7925be7910b',
    'bug_eyed_circle-F3|bundles': None,
    'bug_eyed_circle-F3|count': None,
    'bug_eyed_circle-F3|collapse-check': '66c6a680552356ae4ece86e15acf67ede228d41e7ddc7a0bc879914a8a0f902e',
    'bug_eyed_circle-F3|refine-check': '80c4da6b949080b632edc7e1177ff1cc5e9acdfb55e9bd556d9ad1da0fa3efe7',
    'three_circles-F3|validate': 'e2fb55ca686ebe216b32513bb2345d1312a322f1b633f7daf9de2cf780803a0f',
    'three_circles-F3|cohomology': 'baffc8d03e71c902a06e3fd69824d1e261f3917eb338ce2eda58e78d995b8f7c',
    'three_circles-F3|mv': '18a90b0045b4922212af30a56574913a5c012c4ca35fd14b131eca2d0aa8fcff',
    'three_circles-F3|fibred': 'ba8184a7902a1837a7c4ce8809ff387289042ae7c08783cc986a009f01fa7fc0',
    'three_circles-F3|bundles': None,
    'three_circles-F3|count': None,
    'three_circles-F3|collapse-check': '349c5092dd5722f0660924c4cb81b379cc7bbf2605eaf80462e55d58fa306926',
    'three_circles-F3|refine-check': None,
    'two_origin_line-F5|validate': '7597942bca9c6b39917bc33fb18584a228092b7d6774d5a00e952e4e6d0f40f9',
    'two_origin_line-F5|cohomology': '27c390c7d833569f40108e7e9a233d49e5d47d2e8b8a4253c56f783270ae4d1d',
    'two_origin_line-F5|mv': '4a39665719246a57b37da80164111ebbb9a86ea0a06e12f7d76081f56e36503a',
    'two_origin_line-F5|fibred': 'd08195bf995ee5904476c86a34e62c893220e5f4450ad088e18c1a1736e43feb',
    'two_origin_line-F5|bundles': None,
    'two_origin_line-F5|count': None,
    'two_origin_line-F5|collapse-check': 'f0fcf4b14e3ce8b8af55a019f73fdfced786e8c4a5930655a84ef5beabb915a3',
    'two_origin_line-F5|refine-check': '532e937e5534e38ba45d08edf0256d4ca3a65d23a8e65240d54cc030cbb96f5e',
    'branching_line_n-n2-F5|validate': 'd1c0ef57d5a3f4d67b04d4c2c730173647f8212ba817a0906fd21162e801f527',
    'branching_line_n-n2-F5|cohomology': '984854a6f1a251b54f3d95a5536a6c47ce88bed9b71e603755ccd3c94b90ebbd',
    'branching_line_n-n2-F5|mv': '5a29649a8b0b7e1f3cbe37f9c40e71ac4fe62c2707bbf2f390e15f961e8bc935',
    'branching_line_n-n2-F5|fibred': '94a808d95d9e48878a3551b51a25655e47e08dfa2e6e3efc5795561a290bf09c',
    'branching_line_n-n2-F5|bundles': None,
    'branching_line_n-n2-F5|count': None,
    'branching_line_n-n2-F5|collapse-check': 'aead46972896196e9c35e076b9af880c965497aebb64ffbac28d780e20522c40',
    'branching_line_n-n2-F5|refine-check': None,
    'branching_line_n-n3-F5|validate': 'dcacc9edbdf5ea4e085720e18e08c4c289f4899b6849df73ff4c3ba38f0202bc',
    'branching_line_n-n3-F5|cohomology': '944ae748b7fcf57ac1e2a100247ea5631ad25f8f68528df59c28ba28ff3bc163',
    'branching_line_n-n3-F5|mv': 'b675b543f03d52315164bdc8fa167ff47b2ca6b9669f4d906a0ed94d2492000d',
    'branching_line_n-n3-F5|fibred': 'c7c0eba5da7d4abcd7ad18c82a03aa1b9582d231594e8df969b5d3d6c2304b30',
    'branching_line_n-n3-F5|bundles': None,
    'branching_line_n-n3-F5|count': None,
    'branching_line_n-n3-F5|collapse-check': '1831012558c5bc86364b7ec616dd71cdbfdcaa25ae4e4fc845e4859a3c5d40bd',
    'branching_line_n-n3-F5|refine-check': None,
    'bug_eyed_circle-F5|validate': '3487d621e64d0558bffc57f2235324b9a6c6c79e2b77261a507493cb650027ee',
    'bug_eyed_circle-F5|cohomology': 'd0490028e06b7662d9b63501b72837dc8f7c2c5b6de02d6230705ac61705e2ca',
    'bug_eyed_circle-F5|mv': 'dd0fd47ef13a73af317587978b39c7977f794e4867646ff9a857278716774a96',
    'bug_eyed_circle-F5|fibred': '16d7524dc7dd828cd06c3936cf92776c56b3f32c0647bfb70670558b1fb50de0',
    'bug_eyed_circle-F5|bundles': None,
    'bug_eyed_circle-F5|count': None,
    'bug_eyed_circle-F5|collapse-check': '05e723747bdc74a7759e15bf69f6f85b93197a22ab1acfd487d2f7bca8e16d33',
    'bug_eyed_circle-F5|refine-check': '00b6412603b784583f6d135f0541894ebcf559e2e4e09ae88d7703047ae06868',
    'three_circles-F5|validate': '06bdc1d4c53e896684751a9205759695b87ebb3e56c0485fd7ff66c0ed11b129',
    'three_circles-F5|cohomology': '4f5aeac46efaaac0b1c9c5aea286e2a5582f51b322b388f02841026b40217786',
    'three_circles-F5|mv': 'f3b53d85d276f269694da69966269acf95665c5deafec153588cedfbb273879c',
    'three_circles-F5|fibred': '76259dfe4e458cd3da06aa4e778dfbbea44dea00802563145a80d9cdbbd9b6b0',
    'three_circles-F5|bundles': None,
    'three_circles-F5|count': None,
    'three_circles-F5|collapse-check': '55727b50251c40363dbc13ed8190c39efdc7159c57ef81ab321a1dad612a37cf',
    'three_circles-F5|refine-check': None,
    'random0-F2|validate': '59e419f42cc2b72d835307198e2d883af8a0cee1523a9a037755ee3a6d58caf9',
    'random0-F2|cohomology': '5f832a1a9d52471c3c0c3fde4872f486c2ece6d0241a3d507c3811050c4d29db',
    'random0-F2|mv': '46cbb9651696a055817a315163a3d6013afeb07cd589fc5dd03c9d8fa4bbea92',
    'random0-F2|fibred': '0485b1961d0db3230dc3b6ce5ecf0103022101de3568cce9fbb4a1ae3fff5691',
    'random0-F2|bundles': 'f06849708dea5301cf8dc15bcd8e28d5f6bf891d8eb7cbcdc99b8eb920fadab0',
    'random0-F2|count': '78d9bc2d932b2318d9269ea2d417631902048893092f6c5b9da4e95afc8b0441',
    'random0-F2|collapse-check': 'bed9349ab9682df9a5c7a42e4cf211c61150a084f44378b8855a2ceaf62c3391',
    'random0-F2|refine-check': None,
    'random1-F3|validate': '4861656aadab3a36d56db51a852d30014899ab5875126325e12f24167ef759da',
    'random1-F3|cohomology': 'e8e5e84a6999bd2b216e724ee8f7d426814e41bc8c76e12ce3f57a774615a375',
    'random1-F3|mv': '72a624a55623f26a0b1753e56d2efbe3ee7c55ece244bfb9c07fe049648a7410',
    'random1-F3|fibred': '730b59a25afe13ab17a20f6a799eecd2b4aef1e1e377f357ee469b42a3ca6b6d',
    'random1-F3|bundles': None,
    'random1-F3|count': None,
    'random1-F3|collapse-check': 'b7fd666ffa3bf6ce8efcc05a7b4fb4154f5bd24f1b72ef38581f4f5724f4f397',
    'random1-F3|refine-check': None,
    'random2-F5|validate': '02822e8c84aed9037c6df90a64b450ac6b00473e9407d55372558393a9d926c4',
    'random2-F5|cohomology': 'eeca86a17206236dab305aca6df339cf8e6924d69429f079e01b51cc7258f6f5',
    'random2-F5|mv': '68012481fad036ca9a7c8cfe75d86fd117ad196236e1e190b0a48a38b91083cf',
    'random2-F5|fibred': '78f41dfe5acb7cebf077ab7cb95c5c1577dd20510f54eb621ae1c7e83c924dc8',
    'random2-F5|bundles': None,
    'random2-F5|count': None,
    'random2-F5|collapse-check': 'fd4c49e7e2f7a922fefb5d21515ad59df10c98ab22cebc29d03ac8121969f412',
    'random2-F5|refine-check': None,
    'random3-F2|validate': '46fb9ded3b4e4044676411ba80d996d089508856fec13654536d73315c99b822',
    'random3-F2|cohomology': 'bc804d03c46afbe85bc40fc85744de1698e4df663ff2cc140eb6234970d0a1fd',
    'random3-F2|mv': '8008e2c4086e3a1d4f2ad9b3d0a2b1899faa2b19a6efbf4240121a853d47c21c',
    'random3-F2|fibred': 'ff791aab7ab10b3b2ee3216d8a38d6c9c43a58153fdbb24abb898bc825c486ce',
    'random3-F2|bundles': '5fb87e05e1a5bd1da0d7b45398c53368b365686d9619473b8485868af250fa63',
    'random3-F2|count': 'ca5be0d006e66acdf8552078dc82d88b06f9474c4bc46b97943c8c2752b03240',
    'random3-F2|collapse-check': '2a87ce9593bbdcf57cdb228a69bcb9f95fec07eb902043c12533297ab2ee56eb',
    'random3-F2|refine-check': None,
    'random4-F3|validate': '928261cfb9ffbddbc94cf9ba69a055e72c1d8c1624b0ecebb2cd1d0ace10c427',
    'random4-F3|cohomology': '3f2858c8cb0e33a0e04fb98527d88046b4883d81c6997503924c9136abedab4b',
    'random4-F3|mv': '02a6fbbcad071f12b59ea945b9ddcd2cbb5197edabe586629d9dff117090249f',
    'random4-F3|fibred': 'c28494976a92e11ff389c64452906fc7cffd570d137816e97cc1d882670708aa',
    'random4-F3|bundles': None,
    'random4-F3|count': None,
    'random4-F3|collapse-check': 'f18478a7eed0a7a5a155d10a3ea6a81566d8a9d1e98ee1a947ac0363bcf29e05',
    'random4-F3|refine-check': None,
    'random5-F5|validate': '7a8df5b719cf0eac79b454c5631bd2671e3e12ea2af0758e3db75ac3ff0cdfaa',
    'random5-F5|cohomology': '7a52114f15133e262e9148fab7817c8739fa38dc0cf53112b3b166efd9f7d833',
    'random5-F5|mv': 'ab5b4d32748873b3411b6aa58e1b39e86997bcdcc8b7ba0e250299590d8c1cce',
    'random5-F5|fibred': '6dc189db86d7b511344d4e746106ab809788a8d560733758d5bc19b4ff6cf260',
    'random5-F5|bundles': None,
    'random5-F5|count': None,
    'random5-F5|collapse-check': 'be59ce693d075bdda2918d80ef9a2d4701632e0d45c74348e876526c1e874902',
    'random5-F5|refine-check': None,
    'random6-F2|validate': 'adae39f23119002a4b5c48a4594472f34e031e96080d5ae05141ad94f8785e96',
    'random6-F2|cohomology': 'c5b8c27192c7fac882cbc463dc82910bf7882c07eb500b70c05a0f29ca8008ed',
    'random6-F2|mv': 'd82e1ccc9bad0a7172ad69986b8e0da433a32e147a34cb6cdc7343e284e65020',
    'random6-F2|fibred': '71f0ff3db9ed8cc11cb0fd3ac2f1d695450280037bc55ec8e01432805da723a1',
    'random6-F2|bundles': 'a23ed662ae272a056fd15a6ac0e3a6dd53240c31cc2c3ed1e9d2155ddba42c58',
    'random6-F2|count': 'fb9785fa4c673a8f607e4ec11e2dbcaa32874cd5c6ef9ca70f03a4f2984a2361',
    'random6-F2|collapse-check': 'c86130cba88dd7438b787cdf10f6031001e26191e26ec407babd46c58867a25d',
    'random6-F2|refine-check': None,
    'random7-F3|validate': 'a8c3d2fb74a2133e39c475e067662b04c566c2e85285e36aef439e1ed1507363',
    'random7-F3|cohomology': '8961e8d56508660514f7c19529fc9ece2b39a230f6dc5fbe1c2612351018e222',
    'random7-F3|mv': '5798f0188a160ac29811f495b39334d4fe2446e9c5305deb7003059623c146e5',
    'random7-F3|fibred': '9e47694841f3d1629f7ee028d28c6786b917e10a204f5e75bb69107714e1d83d',
    'random7-F3|bundles': None,
    'random7-F3|count': None,
    'random7-F3|collapse-check': 'd65e266b0c5d9014742a6b7af90e6af623b140bd6f46f2ae93ba8135eeb0b435',
    'random7-F3|refine-check': None,
    'random8-F5|validate': 'fd71f7de3eb7e85ede6d0b5b0f42a97cebe5df0cc22c937a5cc4cd126cd85824',
    'random8-F5|cohomology': '4da48615bf9fbcd224c09f73790e34060408bcea98c6fe9e16b10118979c67fe',
    'random8-F5|mv': '0c95ae9a2013bf4fc830a03abfef377e51b0d4a952a74f32be9b71b37f8d5452',
    'random8-F5|fibred': '6c5aa938b94801e5e310a8cc43063374c37ba721c29170c77b2c41d06dd89715',
    'random8-F5|bundles': None,
    'random8-F5|count': None,
    'random8-F5|collapse-check': 'b1ca4ef016d33e6248d942dd85a8040a1318f2d9b266bf1235b271638dc72190',
    'random8-F5|refine-check': None,
    'random9-F2|validate': 'bb5bf43f36bcfc6ec7620c250870c64f8b8c58c7eebd8a1017ffe804cd429ae5',
    'random9-F2|cohomology': 'a561387b3a97b02cb694e2358841d73f853f7dc552bd62a94c4ad4053e68655f',
    'random9-F2|mv': '5bf0110679eaf23475bd1fda9eade67be3eeaf65707fda2d4d73b9795cd3d5fb',
    'random9-F2|fibred': '30fddc42590a3be821bb88d40f013cf4a93d54a3fd4dae60d58ab1762a0c98cc',
    'random9-F2|bundles': '5647d6316d910212e51d46cf9fc4299a39a7ecbda560c5225e563b6fe7270dfc',
    'random9-F2|count': '189ee6ae3a23e24293af8d039891f63d9e1b513bb0d27e2cce92d398dda20711',
    'random9-F2|collapse-check': 'ebecaa25b586aac52403949070650b6b97b17f5dc10569a638b2d11b60778cb8',
    'random9-F2|refine-check': None,
    'random10-F3|validate': '681d045f76f115f0ac68ac7cb4df9433fd1dce1b8db14de585607131494072c3',
    'random10-F3|cohomology': '1086c8aad0a7e1152d8dc14dcef265e54918008007ccf0ace34152571334683d',
    'random10-F3|mv': '0f65256e612f744ea374219b78f10c8fa43bd542ada106f32ac818316d4940ee',
    'random10-F3|fibred': 'f907eb128bddd95489b87044719fc1c0c442e43de99a4fdb44d911661e0b875e',
    'random10-F3|bundles': None,
    'random10-F3|count': None,
    'random10-F3|collapse-check': 'f30918bbde077f1c79a1799cc635b1bb4b57eb892b17cbced0439a86d49127c5',
    'random10-F3|refine-check': None,
    'random11-F5|validate': 'cfee01e9c9f88211bb2c2b3833c173aa19e5e1b2e9681d9c98974451f9b8b4f0',
    'random11-F5|cohomology': '5b28b225de1bfe2051aaefd009ff4c2d51a71f29344344c6d053d1ae1b11a34d',
    'random11-F5|mv': '528a9a3f587eef40fd9f331e26d908e529418a8c122ad3ec1d47d8bd10360c74',
    'random11-F5|fibred': '30272d053da0e75bf79af0e649233a9ef98c49d8b31fb85d6d5f553ce68ef364',
    'random11-F5|bundles': None,
    'random11-F5|count': None,
    'random11-F5|collapse-check': '9ee816c5235c4a759a3a12e98d08420f51dc0ae25ea9838aa292602e919fef9e',
    'random11-F5|refine-check': None,
    'random12-F2|validate': '081b26fe1024c9ad98c17ba99327ae7e41692866354716e9733768e2fbbd3cb8',
    'random12-F2|cohomology': 'b73f1f6c78cc16c7254f533eb6a6d2472a2bc36d011505648b0dfb28cfbac62c',
    'random12-F2|mv': '887f87bcabb1188f88d2d3fc02a07bc72e9262784135bbdf413d17c15a95c4a3',
    'random12-F2|fibred': '986a6d7c7f12c118689758aea35250aa9b60d6978497e0e47d0b56e413a229a6',
    'random12-F2|bundles': '268ec72f422378cad23d587ab2df612df1cc473135c6a07449972b1b2d771df7',
    'random12-F2|count': '3d0669067686fb4a50211395ee40e77c519eb3cf8ad96b871cef36364f208283',
    'random12-F2|collapse-check': 'b7b5bf55b547045313827a5bf069c831c4803b85207c13728d4257018a8832e4',
    'random12-F2|refine-check': None,
    'random13-F3|validate': 'e2439d0fbd464610bd2a28b5363e202036a88d9502a69cf53ee882f68a862d4c',
    'random13-F3|cohomology': '898a33e661bb2342b8be24c642ce261fb4ed7285216d26da4156d33854ea4d0d',
    'random13-F3|mv': '42375fc69800af06f3e9e9cf9ed53a16e35d07a98d4276b855dc1cc4e8a67a7b',
    'random13-F3|fibred': '2d8188afe7a162b663715f4ff16d79e17e8a7ad09ab1e3542e628ad4f32c1131',
    'random13-F3|bundles': None,
    'random13-F3|count': None,
    'random13-F3|collapse-check': 'cda743cc3a8380e31dff20051b57093131b2dccbf20583b854bbde7348d36a15',
    'random13-F3|refine-check': None,
    'random14-F5|validate': '971cce5f74220d5d910b74a252c7d362234b04d1ab8d9ad0d03d67ecd8ac47e9',
    'random14-F5|cohomology': '668969e22e0e024a250c75cc1fe5ea98d09053c9c417380701c19643b330b98c',
    'random14-F5|mv': 'df56bf1c81722ce319c9a6f862dc11d4696919422a44bc5e5dc0c1ffc7e2be3f',
    'random14-F5|fibred': 'cc12fbfbbab26e09310642423241d7b9c384ef67317453174c9c19d8ba227cd6',
    'random14-F5|bundles': None,
    'random14-F5|count': None,
    'random14-F5|collapse-check': '46a1219705933837c55856016e43496eb4262f5eb37c397f695430131140adf9',
    'random14-F5|refine-check': None,
    'random15-F2|validate': '17cd4bc3f7989009222d453c1cef514588f50409f585de2f3faa05e5ef51b047',
    'random15-F2|cohomology': '4da9bd8ece6753ccf422a65202ea50c2d12b862502ba698aed783a1a639271a3',
    'random15-F2|mv': '3401fc28ecb2bfe0f7f86350c88be998713fe146b86ad48339b2ec69de665acc',
    'random15-F2|fibred': '62100dab680cf2beaabbe7bb344bb5b9a7af841a037ef38843a13a709907e677',
    'random15-F2|bundles': 'c3dff3930ec3871b3d3009ae65451e875a3d9b99a8af9a63f014ce6a32a4be21',
    'random15-F2|count': 'b23633ae3c311f2c46d255ae8d5ec2c74459dd08390de6d0bbca483364ab605b',
    'random15-F2|collapse-check': '7cb9b9778b41e10579f42c5078504d7b6b1ed53a21cea93e402423ac97177187',
    'random15-F2|refine-check': None,
    'random16-F3|validate': '27250c474bcebef02b493f6dc9ece05988ba3c54bf3e0ec4c4fb80ee10042d3d',
    'random16-F3|cohomology': '33f88b4305f3d744881bdf7ba91bf2ba442cec238d5de3a6ed45eedeabddc745',
    'random16-F3|mv': '86a5fd14260289517268aceff4608c035393d76321f738525f882bcfb51c3742',
    'random16-F3|fibred': 'c561c2ebc83ef425c89d99eea295bc63428101c51b35ad9495b635f78b7ab216',
    'random16-F3|bundles': None,
    'random16-F3|count': None,
    'random16-F3|collapse-check': '2f700c2cce796490ed7b955b001a3911aed807ff3d710b8dfc45bd6789d8f431',
    'random16-F3|refine-check': None,
    'random17-F5|validate': '58f8c265baf58b33f3cd8357bc3f2b7cc335d3208d5248935e1393a3fbbee3b6',
    'random17-F5|cohomology': '9f109b633fafb8e73bc93d76dcbe65b72c21f5fcfdb6eaaac63762cd0e65c1c4',
    'random17-F5|mv': '754e9c06a52656db144000dd914e33bf7f301f4e60cbda33a28e40f59bb00cc6',
    'random17-F5|fibred': 'f9bac7a9f265398feb9e50df525b7edb87a1e47e9015f4bb7c43ff596acb28b7',
    'random17-F5|bundles': None,
    'random17-F5|count': None,
    'random17-F5|collapse-check': 'a6f33f2e0f9787cadaf9c6096dd264a9c542a54a1bd5fe93c01c4c11130fe32e',
    'random17-F5|refine-check': None,
    'random18-F2|validate': '950202b2cddb29e3320712028b21b8cfb2e0de7320f55b00c35d88417c3bae6f',
    'random18-F2|cohomology': '66117d81995ad29a7211824e006a6396af6a0fdd8b0886d12310f9f0bfd4a572',
    'random18-F2|mv': 'f491df693db8a91d011bf0ef9f14065ed1cb05f3edfabbcf86a21ca176c13abc',
    'random18-F2|fibred': 'b23cf7b51ff2958e814a24b3e782bbb9446668ae9d7b9873d32741da6720dc15',
    'random18-F2|bundles': '283c379df7674e572a00972f6f6c04cb03275b6291fc1a25430c1cd05baaaad1',
    'random18-F2|count': '0a98f7177d6671818eaf9ce019549deccdf57ac12c7cb5ee9c3e95d9099c7d51',
    'random18-F2|collapse-check': 'dfcb8071828dd73188e7f46f775b15aded6c59a9a920431b5f409f0238d14065',
    'random18-F2|refine-check': None,
    'random19-F3|validate': '8e27a79bbde8eca91e2ed02cb3c42ee72f6c86fafb57279859f6e42d6d61ae39',
    'random19-F3|cohomology': 'a8980549f29cf6d2bcd4efce96bcb8183b4386b8b4c31be2126391ba7294a7a4',
    'random19-F3|mv': '90f2e3a5b0cb9332aa151ede0ffc35266edffa4d9b349b069917b70c1169f894',
    'random19-F3|fibred': 'fc7eb3d8043222ca6150f10c9abfe58d1a6de92224be529083c13a862f7d1cbf',
    'random19-F3|bundles': None,
    'random19-F3|count': None,
    'random19-F3|collapse-check': '6c7e63f0d3d0ecba0f7eb37e2ebe24bb4f26cf1f2698a7994eb6ac9905786791',
    'random19-F3|refine-check': None,
    'random20-F5|validate': 'b4e7e21147aadd31462dbfae1d894af644ea79174595a9499b10c2e65387b102',
    'random20-F5|cohomology': '58cc3c7e8037c81842142519c1cadfb2b658c4115ffcf0fe838619eb74f61948',
    'random20-F5|mv': 'c9fe43e1c3aa3156104f6a5079c50f041aabe01b67ca35a881a7dd3e303dce3c',
    'random20-F5|fibred': 'e6ece9706adeb544985e3862b11b17abe4e85624523a8f30b1b1b5df5232d492',
    'random20-F5|bundles': None,
    'random20-F5|count': None,
    'random20-F5|collapse-check': '6765290ad57c7dfdc3ab5a28150aa7a50bdd0ae446b9b9a03e5ff1e98f63e801',
    'random20-F5|refine-check': None,
    'random21-F2|validate': '3acb62c29d384fc9554c7aa5f358cb2ab5868b3f7dbc285fd33dd71a23cd7a8a',
    'random21-F2|cohomology': '769854f38f68ab975a4353971f9da8ccef5ac63c2a939d43bd356e59f4ece631',
    'random21-F2|mv': '13e1c5f1e8cac360663fc746d9c89f67e5fe37c2c36696cf816d645426701ac1',
    'random21-F2|fibred': '6143cbdcf49e4f7d757972298783cb78a3f87b7895a3d91833313abd245a1b46',
    'random21-F2|bundles': '3e72f2ca5fe4d8b307f5843a7ad184d014f99e4b70d462947d0d15c41437af59',
    'random21-F2|count': 'a6a9f36270620911bb06a6baef342c8a2edba20e45bf110a675bbfe2c0f83a47',
    'random21-F2|collapse-check': 'b132690fde9eec74736993463d54efb893d71689eb90c0f3277345c315632937',
    'random21-F2|refine-check': None,
    'random22-F3|validate': '1e82da68e4694aff24b23a102ddd2489bb1276a30aff43d3352e676d8edeb2e2',
    'random22-F3|cohomology': '99c2a8cda70ce64d574844699ee0f6027a8b1ecd6587fef0ed4e7451832d9b3a',
    'random22-F3|mv': '39d7aa4fdc46bc9140d84f166f06995a33e526d14ed09802f14821b6cf6a7c7a',
    'random22-F3|fibred': 'd248abb3e3cbc314a30bdd3c217f3af4a6634b9168ea147678631438f21ef782',
    'random22-F3|bundles': None,
    'random22-F3|count': None,
    'random22-F3|collapse-check': '4a9c9fada9866711ef4272f5498fd78ca6397a1d8539cf481e7f9b22defc97aa',
    'random22-F3|refine-check': None,
    'random23-F5|validate': 'cc084f4807e16d4d69453beb92f47ecce18222b496c9309e0c780b7136106321',
    'random23-F5|cohomology': 'f232a99fefb5071061aad60dfecddf529457ca0e86f6739e3c012c2dc58ed737',
    'random23-F5|mv': '549d87f7893eb0ffa1e968c15222b1040fc2ae07f71feda38c0cb6e65c39a506',
    'random23-F5|fibred': 'a8cea0626b21417c64f35e29f5e969a7f552e80b4beab5b96ab863d8fa7a7cb4',
    'random23-F5|bundles': None,
    'random23-F5|count': None,
    'random23-F5|collapse-check': '2a42a710709e5cffe0ba91cce8081c5566b386c948222ae34c7eaf740476286e',
    'random23-F5|refine-check': None,
    'random24-F2|validate': 'd14cae47de25fc2b591a87f6b8dd73b1679f7bb4afd456bb75961c67cb09ef6d',
    'random24-F2|cohomology': '7f271084def9c29de6118abbf07c1c4a39cc50a59d72f6acc5b2b2cb1c318539',
    'random24-F2|mv': '5b2b750fc401c1b2d5b5bb752b79032f3e98f398f37903f7b91832f453084fef',
    'random24-F2|fibred': '44de5cca8e726e76615a7a0669d6c596564e86bc14bd094dc18342c310d20edc',
    'random24-F2|bundles': 'a8f95f3caada87b2d5d87b2f8e68ebf51b58bb405a2e655a39e68842e4459efb',
    'random24-F2|count': '5a95589baa383349e8d637c1496139d8faae920a09b33c3a7b9db8b190c21854',
    'random24-F2|collapse-check': '8fbd9893e175aa0f8997d90bc6ddcdc2a1aa1593030dc22616c1f3ee36b2cb68',
    'random24-F2|refine-check': None,
    'random25-F3|validate': 'bf41962e9aaff7304a453dd797aebd738fc8b194454428ef6e7796d57949f74f',
    'random25-F3|cohomology': '6c3e543f31f6763576f220ae76a62a4bfc2cc5ef6f8638643d5e0ee78ad455c4',
    'random25-F3|mv': 'e7b8c5e2e99f633a6c624925ac6f55d30aba5c72b2bd5e8eeee1b8e8052e6bf3',
    'random25-F3|fibred': 'efe1061cdb02e911c788947dcd47ebe29157e0ab32ad3518412fcd7f33d7d312',
    'random25-F3|bundles': None,
    'random25-F3|count': None,
    'random25-F3|collapse-check': '8dd0da6361b73e343aea2238c14d85a125d85826a88e18bd35a5a8ce2534f064',
    'random25-F3|refine-check': None,
    'random26-F5|validate': 'b4451d01d9f900f8297bf810f25467b732a3b08dbdeaea7b5a419a614d29c85a',
    'random26-F5|cohomology': '476d19bca9085d79911311287dbcdb8d1657e24682117a154b214c08859e73ac',
    'random26-F5|mv': 'a8c2a266aa837545ed47ece895c98e5d4322186d4924a656e1da254f15a858b0',
    'random26-F5|fibred': '485063da4829fc08b8df24585e67087e2c9a0c1a6c55a4f074d7bd56753ae0b7',
    'random26-F5|bundles': None,
    'random26-F5|count': None,
    'random26-F5|collapse-check': 'dd760780e7dac5f5e8bc347a3a14e12a855c6b21129a84d19d40386570919bbe',
    'random26-F5|refine-check': None,
    'random27-F2|validate': 'c92375a04554d5a79c2a3c5fb5cae2811f2b11dfe606de2abf672a5fd5b02d9a',
    'random27-F2|cohomology': '8a1e1ade5c73eef8bf42794a749700110cd830f3274844c594a83bd221ac7949',
    'random27-F2|mv': 'bc7309befbfef9268fe3802f44581b2c2834138654673c174e5655ce10dc57a4',
    'random27-F2|fibred': '2357e0a4cc4dc1c10a8a5fd81c92dcbca15ffb5b49b1b74b2e4cb5627f00f599',
    'random27-F2|bundles': '9c1d46283e92bd665b98a5421027f10874122e6c4107fe187bc8458cfd6a0d72',
    'random27-F2|count': '79ad2104ab2634c766f14274d3e435602cd3d1a651cdcae94cd30c2640d8467e',
    'random27-F2|collapse-check': '42825d5e2eb422b6dece7a7e00ae26cf0c380385a69b8ba252e46424657e084d',
    'random27-F2|refine-check': None,
    'random28-F3|validate': 'ab68e2fdb3bfd20e4aab741b1ac515ad9567063f9571c1266cf0e7b242a92507',
    'random28-F3|cohomology': 'b6303b04eef7c2173e1759502b746816220f685a67a8b13b9402f3de158c08a7',
    'random28-F3|mv': 'cec6eb998c6b09ca84b66df68eca50cfdd5535c36b09b71a3cfe3d78c7802b92',
    'random28-F3|fibred': 'a9f51ebb375862d6ab2c14767ff377e8a871cc92b73ce9618306c7ed4b7a0e28',
    'random28-F3|bundles': None,
    'random28-F3|count': None,
    'random28-F3|collapse-check': '380b805b165497d90c3724723e41ec7ba5700dd2ad41f8ce5924f89156448d7f',
    'random28-F3|refine-check': None,
    'random29-F5|validate': '397b172819027a186e04c182d78e418dfb5983a95a7744c82dd18581c42d8b8f',
    'random29-F5|cohomology': 'e7379f23e30649c2b82699318ad4371aaad0c8a71db0b6e44a7cdd3669c42428',
    'random29-F5|mv': 'bd837e6595de067f6c0dc3e13d6d94e70bbc4cbf1f3100a26b48ea05a88bd4df',
    'random29-F5|fibred': '0c4c49275adf5a0daaa96da2dce4de7e7fadecad96ef517a3c51faff8bbb5f2a',
    'random29-F5|bundles': None,
    'random29-F5|count': None,
    'random29-F5|collapse-check': 'c1839eb6ae87d4e6d6cfba4b0ee7affe5f63479fa7b4a177ae44a06d659f3046',
    'random29-F5|refine-check': None,
}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = report_digests(Path(tmp))
    sys.stdout.write("PINNED: dict[str, str | None] = {\n")
    for key, value in table.items():
        sys.stdout.write(f"    {key!r}: {value!r},\n")
    sys.stdout.write("}\n")
