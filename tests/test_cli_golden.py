"""Golden outputs of the command-line front end.

Each scenario runs main() in-process, step by step, in a fresh working
directory holding its input files.  A step pins the exit code, stdout,
stderr and every file the command writes or changes.  The recorded bytes
cover the README examples, one roundtrip per family, the enumeration
code's class table at k = 3, n = 40, encode --spec-out then decode --spec
for every payload family, encode --in, the message families,
decode and contains for every congruence family, every bound family,
verify-code under both t-row models, and domain errors.  FIRST_FAILURES
makes a decoder fail on one named received word per family shape, which
pins the first-failure label (the message or payload and the first error
pattern) and the count of error patterns behind one failing word;
USAGE_ERRORS pins each verb's family choices.
"""

from itertools import product

import pytest

from composite_dna import cli, families
from composite_dna.vt_core import DecodeFailure

# every word over Phi_{2,3} of length 2, as a codebook file in rank order
ALL_WORDS_2_3_2 = "\n".join(
    "2 3 2\n" + "".join(a[i] + b[i] + "\n" for i in range(3))
    for a, b in product(("000", "001", "011", "111"), repeat=2)
)

SCENARIOS = {
    "readme-c1d": (
        {},
        [
            (
                "encode --family c1d --k 2 --n 4 --a 0 --message 0,1 --out word.txt",
                0,
                "",
                "",
                {"word.txt": "2 2 4\n0000\n1001\n"},
            ),
            (
                "corrupt --model del-per-row --e 1,0 --seed 7 --in word.txt --out received.txt",
                0,
                "",
                "",
                {"received.txt": "2 2 4\n000\n1001\n"},
            ),
            ("decode --family c1d --a 0 --in received.txt", 0, "0,1\n", "", {}),
        ],
    ),
    "readme-bounds": (
        {},
        [
            (
                "bounds --family sp-total --q 2 --k 2 --n 2 --e 1",
                0,
                ("q,k,n,extra,family,value,floor,asymptotic\n"
                 "2,2,2,e=1,sp-total,3,3,false\n"),
                "",
                {},
            ),
        ],
    ),
    "table-doll": (
        {},
        [
            (
                "table doll --k 3 --n 40",
                0,
                ("l,supports,fills,inner,class_size\n"
                 "0,1,1099511627776,1,1099511627776\n"
                 "1,40,549755813888,1,21990232555520\n"
                 "2,780,274877906944,1,214404767416320\n"
                 "3,9880,137438953472,2,2715793720606720\n"
                 "4,91390,68719476736,2,12560545957806080\n"
                 "5,658008,34359738368,4,90435930896203776\n"
                 "6,3838380,17179869184,8,527542930227855360\n"
                 "7,18643560,8589934592,16,2562351375392440320\n"
                 "8,76904685,4294967296,16,5284849711746908160\n"
                 "9,273438880,2147483648,32,18790576752877895680\n"
                 "10,847660528,1073741824,64,58250787933921476608\n"
                 "11,2311801440,536870912,128,158865785274331299840\n"
                 "12,5586853480,268435456,256,383925647746300641280\n"
                 "13,12033222880,134217728,512,826916779761262919680\n"
                 "14,23206929840,67108864,1024,1594768075253864202240\n"
                 "15,40225345056,33554432,2048,2764264663773364617216\n"
                 "16,62852101650,16777216,2048,2159581768572941107200\n"
                 "17,88732378800,8388608,4096,3048821320338269798400\n"
                 "18,113380261800,4194304,8192,3895716131543344742400\n"
                 "19,131282408400,2097152,16384,4510829204944925491200\n"
                 "20,137846528820,1048576,32768,4736370665192171765760\n"
                 "21,131282408400,524288,65536,4510829204944925491200\n"
                 "22,113380261800,262144,131072,3895716131543344742400\n"
                 "23,88732378800,131072,262144,3048821320338269798400\n"
                 "24,62852101650,65536,524288,2159581768572941107200\n"
                 "25,40225345056,32768,1048576,1382132331886682308608\n"
                 "26,23206929840,16384,2097152,797384037626932101120\n"
                 "27,12033222880,8192,4194304,413458389880631459840\n"
                 "28,5586853480,4096,8388608,191962823873150320640\n"
                 "29,2311801440,2048,16777216,79432892637165649920\n"
                 "30,847660528,1024,33554432,29125393966960738304\n"
                 "31,273438880,512,67108864,9395288376438947840\n"
                 "32,76904685,256,67108864,1321212427936727040\n"
                 "33,18643560,128,134217728,320293921924055040\n"
                 "34,3838380,64,268435456,65942866278481920\n"
                 "35,658008,32,536870912,11304491362025472\n"
                 "36,91390,16,1073741824,1570068244725760\n"
                 "37,9880,8,2147483648,169737107537920\n"
                 "38,780,4,4294967296,13400297963520\n"
                 "39,40,2,8589934592,687194767360\n"
                 "40,1,1,17179869184,17179869184\n"),
                "",
                {},
            ),
        ],
    ),
    "bounds-families": (
        {},
        [
            (
                "bounds --family sp-per-row --q 3 --k 3 --n 4 --budgets 2,1,1",
                0,
                ("q,k,n,extra,family,value,floor,asymptotic\n"
                 "3,3,4,budgets=2|1|1,sp-per-row,10000/37,270,false\n"),
                "",
                {},
            ),
            (
                "bounds --family sp-total --q 3 --k 2 --n 5 --e 2",
                0,
                ("q,k,n,extra,family,value,floor,asymptotic\n"
                 "3,2,5,e=2,sp-total,7776/41,189,false\n"),
                "",
                {},
            ),
            (
                "bounds --family asym-total --q 4 --k 2 --n 6 --e 2",
                0,
                ("q,k,n,extra,family,value,floor,asymptotic\n"
                 "4,2,6,e=2 l=1,asym-total,1562500/81,19290,true\n"),
                "",
                {},
            ),
            (
                "bounds --family asym-total --q 4 --k 2 --n 6 --e 2 --l 3",
                0,
                ("q,k,n,extra,family,value,floor,asymptotic\n"
                 "4,2,6,e=2 l=3,asym-total,25000000/81,308641,true\n"),
                "",
                {},
            ),
            (
                "bounds --family asym-general --q 3 --k 3 --n 5 --budgets 1,0,1",
                0,
                ("q,k,n,extra,family,value,floor,asymptotic\n"
                 "3,3,5,budgets=1|0|1,asym-general,200000/3,66666,true\n"),
                "",
                {},
            ),
            (
                "bounds --family gspb-deletion --k 2 --n 4",
                0,
                ("q,k,n,extra,family,value,floor,asymptotic\n"
                 "2,2,4,,gspb-deletion,143/3,47,false\n"),
                "",
                {},
            ),
            (
                "bounds --family gspb-deletion --q 2 --k 3 --n 3",
                0,
                ("q,k,n,extra,family,value,floor,asymptotic\n"
                 "2,3,3,,gspb-deletion,49,49,false\n"),
                "",
                {},
            ),
            (
                "bounds --family asym-deletion --k 3 --n 5",
                0,
                ("q,k,n,extra,family,value,floor,asymptotic\n"
                 "2,3,5,,asym-deletion,2048/3,682,true\n"),
                "",
                {},
            ),
            (
                "bounds --family asym-general --q 3 --k 3 --n 5",
                1,
                "",
                "error: --budgets is required for family asym-general\n",
                {},
            ),
            (
                "bounds --family asym-deletion --n 5",
                1,
                "",
                "error: --k is required for family asym-deletion\n",
                {},
            ),
            # the two deletion bounds are proved for q = 2 alone
            (
                "bounds --family gspb-deletion --q 3 --k 2 --n 4",
                1,
                "",
                "error: bound family gspb-deletion is binary-only (q = 2), got --q 3\n",
                {},
            ),
            (
                "bounds --family gspb-deletion --q 5 --k 2 --n 4",
                1,
                "",
                "error: bound family gspb-deletion is binary-only (q = 2), got --q 5\n",
                {},
            ),
            (
                "bounds --family asym-deletion --q 3 --k 3 --n 5",
                1,
                "",
                "error: bound family asym-deletion is binary-only (q = 2), got --q 3\n",
                {},
            ),
            (
                "bounds --family asym-deletion --q 5 --k 3 --n 5",
                1,
                "",
                "error: bound family asym-deletion is binary-only (q = 2), got --q 5\n",
                {},
            ),
        ],
    ),
    "readme-verify-code": (
        {
            "book.txt": ("2 2 3\n"
                         "000\n"
                         "000\n"
                         "\n"
                         "2 2 3\n"
                         "000\n"
                         "110\n"
                         "\n"
                         "2 2 3\n"
                         "010\n"
                         "011\n"
                         "\n"
                         "2 2 3\n"
                         "101\n"
                         "101\n"
                         "\n"
                         "2 2 3\n"
                         "111\n"
                         "111\n"),
        },
        [
            (
                "verify-code --model sub-total --e 1 --in book.txt",
                0,
                ("verdict: false\n"
                 "witness codeword A:\n"
                 "2 2 3\n"
                 "000\n"
                 "000\n"
                 "witness codeword B:\n"
                 "2 2 3\n"
                 "000\n"
                 "110\n"
                 "shared received:\n"
                 "2 2 3\n"
                 "000\n"
                 "010\n"),
                "",
                {},
            ),
            (
                "verify-code --model del-total --e 1 --in book.txt",
                0,
                "verdict: true\n",
                "",
                {},
            ),
        ],
    ),
    "verify-code-t-rows": (
        {
            "all.txt": ALL_WORDS_2_3_2,
            # the C2S (q=2, k=3, t=2, m=1) code: one codeword per payload
            "c2s.txt": ("2 3 17\n"
                        "00000000000000000\n"
                        "00000000000000000\n"
                        "00000000000000000\n"
                        "\n"
                        "2 3 17\n"
                        "00000110000110111\n"
                        "00000110000110111\n"
                        "10000111000110111\n"
                        "\n"
                        "2 3 17\n"
                        "00011110001100000\n"
                        "10011111001100000\n"
                        "10011111001100000\n"
                        "\n"
                        "2 3 17\n"
                        "11111111011100001\n"
                        "11111111011100001\n"
                        "11111111011110001\n"),
        },
        [
            (
                "verify-code --model del-t-rows --t 2 --e 1,1 --in all.txt",
                0,
                ("verdict: false\n"
                 "witness codeword A:\n"
                 "2 3 2\n"
                 "00\n"
                 "00\n"
                 "00\n"
                 "witness codeword B:\n"
                 "2 3 2\n"
                 "00\n"
                 "00\n"
                 "01\n"
                 "shared received:\n"
                 "2 3 2\n"
                 "0\n"
                 "00\n"
                 "0\n"),
                "",
                {},
            ),
            (
                "verify-code --model sub-t-rows --t 2 --e 1,1 --in c2s.txt",
                0,
                "verdict: true\n",
                "",
                {},
            ),
        ],
    ),
    "readme-roundtrip": (
        {},
        [
            (
                "roundtrip --family lme1 --k 2 --n 7 --a 0",
                0,
                "family=lme1\ncases=1215 failures=0\nPASS\n",
                "",
                {},
            ),
            (
                "roundtrip --family c2s --q 2 --k 3 --t 2 --m 3 --trials 5 --seed 1",
                0,
                "family=c2s\ncases=5705 failures=0\nPASS\n",
                "",
                {},
            ),
        ],
    ),
    "roundtrip-c2d": (
        {},
        [
            (
                "roundtrip --family c2d --k 3 --t 2 --m 4 --trials 1 --seed 1",
                0,
                "family=c2d\ncases=469 failures=0\nPASS\n",
                "",
                {},
            ),
        ],
    ),
    "roundtrip-c2s": (
        {},
        [
            (
                "roundtrip --family c2s --q 3 --k 2 --t 2 --m 3 --trials 1 --seed 1",
                0,
                "family=c2s\ncases=961 failures=0\nPASS\n",
                "",
                {},
            ),
        ],
    ),
    "roundtrip-c4d": (
        {},
        [
            (
                "roundtrip --family c4d --q 3 --k 3 --t 2 --m 3 --trials 1 --seed 1",
                0,
                "family=c4d\ncases=397 failures=0\nPASS\n",
                "",
                {},
            ),
        ],
    ),
    "roundtrip-c3d": (
        {},
        [
            (
                "roundtrip --family c3d --q 3 --k 3 --m 8 --trials 8 --seed 1",
                0,
                "family=c3d\ncases=296 failures=0\nPASS\n",
                "",
                {},
            ),
        ],
    ),
    "roundtrip-c1s": (
        {},
        [
            (
                "roundtrip --family c1s --q 3 --k 2 --m 5 --trials 24 --seed 1",
                0,
                "family=c1s\ncases=888 failures=0\nPASS\n",
                "",
                {},
            ),
        ],
    ),
    "roundtrip-c1d": (
        {},
        [
            (
                "roundtrip --family c1d --k 2 --n 6 --a 0",
                0,
                "family=c1d\ncases=972 failures=0\nPASS\n",
                "",
                {},
            ),
        ],
    ),
    "roundtrip-lme1": (
        {},
        [
            (
                "roundtrip --family lme1 --k 2 --n 7 --a 1",
                0,
                "family=lme1\ncases=1215 failures=0\nPASS\n",
                "",
                {},
            ),
        ],
    ),
    "roundtrip-doll": (
        {},
        [
            (
                "roundtrip --family doll --k 3 --n 6",
                0,
                "family=doll\ncases=1536 failures=0\nPASS\n",
                "",
                {},
            ),
        ],
    ),
    "spec-c2d": (
        {},
        [
            (
                "encode --family c2d --k 3 --t 2 --m 4 --message 1,0,2,3 --out cw.txt --spec-out cw.spec",
                0,
                "",
                "",
                {
                    "cw.spec": "family=c2d\nk=3\nt=2\nm=4\nn=12\n",
                    "cw.txt": ("2 3 12\n"
                               "000101000100\n"
                               "001101000110\n"
                               "101101010110\n"),
                },
            ),
            (
                "corrupt --model del-t-rows --t 2 --e 1,1 --seed 3 --in cw.txt --out rx.txt",
                0,
                "",
                "",
                {"rx.txt": "2 3 12\n00010100100\n001101000110\n10110100110\n"},
            ),
            (
                "decode --spec cw.spec --in rx.txt",
                0,
                "2 3 4\n0001\n0011\n1011\n",
                "",
                {},
            ),
        ],
    ),
    "spec-c3d": (
        {},
        [
            (
                "encode --family c3d --q 3 --k 2 --m 3 --message 5,0,3 --out cw.txt --spec-out cw.spec",
                0,
                "",
                "",
                {
                    "cw.spec": "family=c3d\nq=3\nk=2\nm=3\nn=7\n",
                    "cw.txt": "3 2 7\n2000100\n2020120\n",
                },
            ),
            (
                "corrupt --model del-per-row --e 1,0 --seed 4 --in cw.txt --out rx.txt",
                0,
                "",
                "",
                {"rx.txt": "3 2 7\n200010\n2020120\n"},
            ),
            (
                "decode --spec cw.spec --in rx.txt --out payload.txt",
                0,
                "",
                "",
                {"payload.txt": "3 2 3\n200\n202\n"},
            ),
        ],
    ),
    "spec-c4d": (
        {},
        [
            (
                "encode --family c4d --q 3 --k 3 --t 2 --m 3 --message 9,4,1 --out cw.txt --spec-out cw.spec",
                0,
                "",
                "",
                {
                    "cw.spec": "family=c4d\nq=3\nk=3\nt=2\nm=3\nn=11\n",
                    "cw.txt": "3 3 11\n20001200100\n20001200100\n22101200101\n",
                },
            ),
            (
                "corrupt --model del-t-rows --t 2 --e 1,1 --seed 5 --in cw.txt --out rx.txt",
                0,
                "",
                "",
                {"rx.txt": "3 3 11\n20001200100\n0001200100\n2210100101\n"},
            ),
            ("decode --spec cw.spec --in rx.txt", 0, "3 3 3\n200\n200\n221\n", "", {}),
        ],
    ),
    "spec-c1s": (
        {},
        [
            (
                "encode --family c1s --q 3 --k 2 --m 5 --message 0,5,3,1,4 --out cw.txt --spec-out cw.spec",
                0,
                "",
                "",
                {
                    "cw.spec": "family=c1s\nq=3\nk=2\nm=5\nn=9\n",
                    "cw.txt": "3 2 9\n020010000\n022120020\n",
                },
            ),
            (
                "corrupt --model sub-total --e 1 --seed 6 --in cw.txt --out rx.txt",
                0,
                "",
                "",
                {"rx.txt": "3 2 9\n020010000\n022122020\n"},
            ),
            ("decode --spec cw.spec --in rx.txt", 0, "3 2 5\n02001\n02212\n", "", {}),
        ],
    ),
    "spec-c2s": (
        {},
        [
            (
                "encode --family c2s --q 3 --k 2 --t 2 --m 3 --message 2,5,1 --out cw.txt --spec-out cw.spec",
                0,
                "",
                "",
                {
                    "cw.spec": "family=c2s\nq=3\nk=2\nt=2\nm=3\nn=15\n",
                    "cw.txt": "3 2 15\n120001100001012\n121001100001112\n",
                },
            ),
            (
                "corrupt --model sub-t-rows --t 2 --e 1,1 --seed 7 --in cw.txt --out rx.txt",
                0,
                "",
                "",
                {"rx.txt": "3 2 15\n120021100001012\n121001000001112\n"},
            ),
            ("decode --spec cw.spec --in rx.txt", 0, "3 2 3\n120\n121\n", "", {}),
        ],
    ),
    "encode-from-file": (
        {"payload.txt": "2 3 4\n0011\n0111\n1111\n"},
        [
            (
                "encode --family c2d --k 3 --t 2 --m 4 --in payload.txt",
                0,
                "2 3 12\n001101000100\n011101000100\n111101100100\n",
                "",
                {},
            ),
        ],
    ),
    "encode-spec-to-stdout": (
        {},
        [
            (
                "encode --family c2d --q 3 --k 3 --t 2 --m 4 --message 3,2,1,0 --spec-out -",
                0,
                ("2 3 12\n"
                 "100001000100\n"
                 "110001000100\n"
                 "111001000100\n"
                 "family=c2d\n"
                 "q=2\n"
                 "k=3\n"
                 "t=2\n"
                 "m=4\n"
                 "n=12\n"),
                "",
                {},
            ),
        ],
    ),
    "class-code-spec-to-stdout": (
        {},
        [
            (
                "encode --family c1d --q 3 --k 2 --n 4 --a 0 --message 0,1 --spec-out -",
                0,
                ("2 2 4\n"
                 "0000\n"
                 "1001\n"
                 "family=c1d\n"
                 "q=2\n"
                 "k=2\n"
                 "n=4\n"
                 "a=0\n"),
                "",
                {},
            ),
            (
                "encode --family lme1 --q 3 --k 3 --n 6 --a 0 --message 1,2,3 --spec-out -",
                0,
                ("2 3 6\n"
                 "100010\n"
                 "101010\n"
                 "111010\n"
                 "family=lme1\n"
                 "q=2\n"
                 "k=3\n"
                 "n=6\n"
                 "a=0\n"),
                "",
                {},
            ),
        ],
    ),
    "message-families": (
        {},
        [
            (
                "encode --family c1d --k 2 --n 6 --a 1 --message 2,0,1,1 --out c1d.txt --spec-out c1d.spec",
                0,
                "",
                "",
                {
                    "c1d.spec": "family=c1d\nk=2\nn=6\na=1\n",
                    "c1d.txt": "2 2 6\n010000\n010011\n",
                },
            ),
            (
                "corrupt --model del-total --e 1 --seed 2 --in c1d.txt --out c1d.rx",
                0,
                "",
                "",
                {"c1d.rx": "2 2 6\n010000\n01001\n"},
            ),
            ("decode --spec c1d.spec --in c1d.rx", 0, "2,0,1,1\n", "", {}),
            ("contains --family c1d --a 1 --in c1d.txt", 0, "true\n", "", {}),
            (
                "encode --family lme1 --k 3 --n 6 --a 0 --message 1,2,3 --out lme1.txt --spec-out lme1.spec",
                0,
                "",
                "",
                {
                    "lme1.spec": "family=lme1\nk=3\nn=6\na=0\n",
                    "lme1.txt": "2 3 6\n100010\n101010\n111010\n",
                },
            ),
            (
                "corrupt --model sub-total --e 1 --seed 5 --in lme1.txt --out lme1.rx",
                0,
                "",
                "",
                {"lme1.rx": "2 3 6\n100010\n100010\n111010\n"},
            ),
            ("decode --family lme1 --a 0 --in lme1.rx", 0, "1,2,3\n", "", {}),
            ("contains --family lme1 --a 0 --in lme1.txt", 0, "true\n", "", {}),
            ("contains --family lme1 --a 2 --in lme1.txt", 0, "false\n", "", {}),
            (
                "encode --family doll --k 2 --n 4 --message 1,2 --out doll.txt --spec-out doll.spec",
                0,
                "",
                "",
                {
                    "doll.spec": "family=doll\nk=2\nn=4\n",
                    "doll.txt": "2 2 4\n0110\n0110\n",
                },
            ),
            (
                "corrupt --model sub-per-row --e 1,0 --seed 11 --in doll.txt --out doll.rx",
                0,
                "",
                "",
                {"doll.rx": "2 2 4\n0010\n0110\n"},
            ),
            ("decode --spec doll.spec --in doll.rx", 0, "1,2\n", "", {}),
            (
                "encode --family doll --q 2 --k 3 --n 6 --message 3,1,0,2 --spec-out doll3.spec",
                0,
                "2 3 6\n001000\n001000\n111100\n",
                "",
                {"doll3.spec": "family=doll\nq=2\nk=3\nn=6\n"},
            ),
        ],
    ),
    "congruence-families": (
        {
            "bin.txt": "2 3 5\n00100\n10100\n10111\n",
            "bin.rx": "2 3 5\n0100\n10100\n1011\n",
            "q1.txt": "3 2 4\n2001\n2021\n",
            "q1.rx": "3 2 4\n2001\n201\n",
            "qt.txt": "3 3 4\n2001\n2001\n2202\n",
            "qt.rx": "3 3 4\n200\n001\n2202\n",
        },
        [
            (
                "decode --family cong-binary-t --p 7 --targets 6,1 --in bin.rx",
                0,
                "2 3 5\n00100\n10100\n10111\n",
                "",
                {},
            ),
            (
                "contains --family cong-binary-t --p 7 --targets 6,1 --in bin.txt",
                0,
                "true\n",
                "",
                {},
            ),
            (
                "contains --family cong-binary-t --p 7 --targets 0,0 --in bin.txt",
                0,
                "false\n",
                "",
                {},
            ),
            (
                "decode --family cong-qary-1 --a 11 --in q1.rx",
                0,
                "3 2 4\n2001\n2021\n",
                "",
                {},
            ),
            ("contains --family cong-qary-1 --a 11 --in q1.txt", 0, "true\n", "", {}),
            (
                "decode --family cong-qary-t --p 13 --targets 3,9 --in qt.rx",
                0,
                "3 3 4\n2001\n2001\n2202\n",
                "",
                {},
            ),
            (
                "contains --family cong-qary-t --p 13 --targets 3,9 --in qt.txt",
                0,
                "true\n",
                "",
                {},
            ),
        ],
    ),
    "domain-errors": (
        {
            "bad.txt": "2 2 4\n010\n001\n",
            "bogus.spec": "family=bogus\n",
            "word.txt": "2 2 3\n001\n011\n",
        },
        [
            (
                "decode --family c1d --a 0 --in bad.txt",
                1,
                "",
                "error: more than one row lost a symbol\n",
                {},
            ),
            (
                "roundtrip --family c2s --q 2 --k 3 --t 4 --m 3",
                1,
                "",
                "error: need 2 <= t <= k\n",
                {},
            ),
            (
                "encode --family c1d --k 2 --n 4 --message 0,1",
                1,
                "",
                "error: --a is required for family c1d\n",
                {},
            ),
            (
                "encode --family c4d --q 3 --k 3 --m 3 --message 1,2,3",
                1,
                "",
                "error: --t is required for family c4d\n",
                {},
            ),
            (
                "encode --family c2d --k 3 --t 2 --m 2 --message 1,2",
                1,
                "",
                "error: payload length m=2 below f(k,t)=3\n",
                {},
            ),
            (
                "decode --family cong-binary-t --p 7 --in bad.txt",
                1,
                "",
                "error: --targets is required for family cong-binary-t\n",
                {},
            ),
            (
                "decode --family cong-qary-t --targets 1 --in word.txt",
                1,
                "",
                "error: --p is required for family cong-qary-t\n",
                {},
            ),
            (
                "contains --family lme1 --in word.txt",
                1,
                "",
                "error: --a is required for family lme1\n",
                {},
            ),
            (
                "roundtrip --family doll --k 3",
                1,
                "",
                "error: --n is required for family doll\n",
                {},
            ),
            (
                "roundtrip --family c1d --k 2 --a 0",
                1,
                "",
                "error: --n is required for family c1d\n",
                {},
            ),
            (
                "decode --spec bogus.spec --in word.txt",
                1,
                "",
                "error: family 'bogus' has no decoder\n",
                {},
            ),
            (
                "decode --in word.txt",
                1,
                "",
                "error: --family is required (flag or spec file)\n",
                {},
            ),
            (
                "bounds --family asym-general --q 2 --k 2 --n 0 --budgets 1,0",
                1,
                "",
                "error: need n >= 1, got n=0\n",
                {},
            ),
            (
                "bounds --family asym-general --q 1 --k 2 --n 3 --budgets 1,0",
                1,
                "",
                "error: need q >= 2, got q=1\n",
                {},
            ),
            (
                "bounds --family asym-total --q 1 --k 2 --n 4 --e 1",
                1,
                "",
                "error: need q >= 2, got q=1\n",
                {},
            ),
            (
                "bounds --family sp-per-row --q 2 --k 0 --n 3 --budgets=",
                1,
                "",
                "error: need k >= 1, got k=0\n",
                {},
            ),
            (
                "bounds --family asym-general --q 3 --k 3 --n 5 --budgets 1,0,1,1",
                1,
                "",
                "error: expected 3 budgets, got 4\n",
                {},
            ),
        ],
    ),
}

# name -> (families global to patch, call that raises DecodeFailure, argv, stdout)
def _rows(*texts):
    """Received rows as digit tuples, from one string of digits per row."""
    return tuple(tuple(map(int, text)) for text in texts)


# case -> (decoder name in families, the received rows it fails on, argv, stdout).
# failures= counts every error pattern that yields the failing rows: four
# deletion positions in the run 0000 for c1d, and 3 x 2 positions in the
# runs 000 and 00 of the two hit rows for c4d.
FIRST_FAILURES = {
    "first-failure-c1d": (
        "c1d_decode",
        _rows("000", "0000"),
        "roundtrip --family c1d --k 2 --n 4 --a 0",
        ("family=c1d\n"
         "cases=72 failures=4\n"
         "FAIL\n"
         "first failure: message=(0, 0) pattern=[(0, 0)]\n"
         "received rows were:\n"
         "2 2 4\n"
         "000\n"
         "0000\n"),
    ),
    "first-failure-lme1": (
        "cecc1_decode",
        _rows("0001000", "0000000"),
        "roundtrip --family lme1 --k 2 --n 7 --a 0",
        ("family=lme1\n"
         "cases=1215 failures=1\n"
         "FAIL\n"
         "first failure: message=(0, 0, 0, 0) pattern=[(0, (3, 1))]\n"
         "received rows were:\n"
         "2 2 7\n"
         "0001000\n"
         "0000000\n"),
    ),
    "first-failure-doll": (
        "dec_doll",
        _rows("0100", "0000"),
        "roundtrip --family doll --k 2 --n 4",
        ("family=doll\n"
         "cases=36 failures=1\n"
         "FAIL\n"
         "first failure: message=(0, 0) pattern=[(0, (1, 1))]\n"
         "received rows were:\n"
         "2 2 4\n"
         "0100\n"
         "0000\n"),
    ),
    "first-failure-c2d": (
        "c2d_decode",
        _rows("01010000100", "011101000100", "111101000101"),
        "roundtrip --family c2d --k 3 --t 2 --m 4 --trials 1 --seed 1",
        ("family=c2d\n"
         "cases=469 failures=1\n"
         "FAIL\n"
         "first failure: payload#0 pattern=[(0, 5)]\n"
         "received rows were:\n"
         "2 3 12\n"
         "01010000100\n"
         "011101000100\n"
         "111101000101\n"),
    ),
    "first-failure-c4d-two-runs": (
        "c4d_decode",
        _rows("0200100100", "1201000120", "22001200120"),
        "roundtrip --family c4d --q 3 --k 3 --t 2 --m 3 --trials 1 --seed 1",
        ("family=c4d\n"
         "cases=397 failures=6\n"
         "FAIL\n"
         "first failure: payload#0 pattern=[(0, 5), (1, 2)]\n"
         "received rows were:\n"
         "3 3 11\n"
         "0200100100\n"
         "1201000120\n"
         "22001200120\n"),
    ),
}

# argv -> last line of the usage error (exit 2), which lists the family choices
USAGE_ERRORS = {
    "encode --family cong-qary-1": (
        "composite-dna encode: error: argument --family: invalid choice: 'cong-qary-1'"
        " (choose from 'c1d', 'lme1', 'doll', 'c2d', 'c3d', 'c4d', 'c1s', 'c2s')"
    ),
    "decode --family nope": (
        "composite-dna decode: error: argument --family: invalid choice: 'nope'"
        " (choose from 'c1d', 'lme1', 'doll', 'c2d', 'c3d', 'c4d', 'c1s', 'c2s', 'cong-binary-t', 'cong-qary-1', 'cong-qary-t')"
    ),
    "contains --family doll": (
        "composite-dna contains: error: argument --family: invalid choice: 'doll'"
        " (choose from 'c1d', 'lme1', 'cong-binary-t', 'cong-qary-1', 'cong-qary-t')"
    ),
    "bounds --family nope": (
        "composite-dna bounds: error: argument --family: invalid choice: 'nope'"
        " (choose from 'sp-per-row', 'sp-total', 'asym-total', 'asym-general', 'gspb-deletion', 'asym-deletion')"
    ),
    "corrupt --model nope": (
        "composite-dna corrupt: error: argument --model: invalid choice: 'nope'"
        " (choose from 'sub-per-row', 'sub-total', 'sub-t-rows', 'del-per-row', 'del-total', 'del-t-rows')"
    ),
    "verify-code --model nope": (
        "composite-dna verify-code: error: argument --model: invalid choice: 'nope'"
        " (choose from 'sub-per-row', 'sub-total', 'sub-t-rows', 'del-per-row', 'del-total', 'del-t-rows')"
    ),
    "roundtrip --family cong-binary-t": (
        "composite-dna roundtrip: error: argument --family: invalid choice: 'cong-binary-t'"
        " (choose from 'c1d', 'lme1', 'doll', 'c2d', 'c3d', 'c4d', 'c1s', 'c2s')"
    ),
}


def run(capsys, argv):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def snapshot(directory):
    return {path.name: path.read_text() for path in directory.iterdir()}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inputs, steps = SCENARIOS[name]
    for file_name, text in inputs.items():
        (tmp_path / file_name).write_text(text)
    for argv, code, out, err, files in steps:
        before = snapshot(tmp_path)
        assert run(capsys, argv) == (code, out, err), argv
        after = snapshot(tmp_path)
        written = {key: text for key, text in after.items() if before.get(key) != text}
        assert written == files, argv


@pytest.mark.parametrize("name", list(FIRST_FAILURES))
def test_first_failure_label(name, monkeypatch, capsys):
    func, target, argv, out = FIRST_FAILURES[name]
    original = getattr(families, func)

    def flaky(*args):
        if args[0].rows == target:
            raise DecodeFailure("forced")
        return original(*args)

    monkeypatch.setattr(families, func, flaky)
    assert run(capsys, argv) == (0, out, "")


@pytest.mark.parametrize("argv", list(USAGE_ERRORS))
def test_usage_error_lists_the_family_choices(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv.split())
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == USAGE_ERRORS[argv]
