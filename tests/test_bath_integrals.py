"""The 1D production route of every observable.

heating_rate, drag_combination (= force_rest_frame), the bath term of
force_lab and the absorbed power of intensity are one integral each
over the rest-frame frequency w', with the angular integral of the bath
occupation in closed form (or a fixed Gauss-Legendre rule in x at low
speed).  They are checked here against mpmath evaluations of the same
1D forms and against the independent reference of perfbench/reference.py.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from bbdrag import (
    BETA_MAX,
    BathSpec,
    ParticleState,
    QuadratureSpec,
    drag_combination,
    evaluate_bundle,
    force_lab,
    force_rest_frame,
    heating_rate,
    intensity,
    model_to_dict,
)
import bbdrag.cli as cli
from bbdrag import consistency, observables
from bbdrag.observables import _CLOSED_FORM_BETA

from conftest import REFERENCE_MODELS, model_label

SPEC = QuadratureSpec()
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"

# mpmath values of the 1D forms at 60 digits (mpmath 1.3.0, mp.quad with
# maxdegree 12, panel edges at the model features and a geometric ladder of
# thermal scales, upper limit 80 D T2 or 80 T1):
#   Qdot  = (2 T2/(pi b g^3)) Int w^3 a'' ln[(1 - e^(-w D/T2))/(1 - e^(-w/(D T2)))] dw
#           - (4/(pi g^2)) Int w^4 a'' n(w, T1) dw
#   drag  = -(2/(pi g^2)) Int w^4 a''(w) J1(w/(g T2)) dw,
#   J1(c) = [Li2(e^-b) - Li2(e^-a) - b g^2 c (ln(1 - e^-a) + ln(1 - e^-b))] / (b^2 g^2 c^2),
#           a = c/(1+b), b = c/(1-b) in the brackets,
# with D = sqrt((1+b)/(1-b)), g the Lorentz factor, mpmath's log, expm1 and
# polylog(2, .), and the betas as the binary floats the engine receives.
# J1 was checked against direct mp.quad of Int (x+b)(1+bx)^-3 n(c/(1+bx)) dx.

# (model, beta) -> (Qdot at T1 = 0.5, T2 = 1; drag at T2 = 1)
ULTRA = {
    ("LorentzOscillator", 0.99999): (7.062720262420454e-05, -4.513539063358506),
    ("LorentzOscillator", 0.999999): (6.66670785243198e-06, -4.3158818097100715),
    ("LorentzOscillator", BETA_MAX): (6.425106635485617e-09, -4.195125743896206),
    ("DrudeSphere", 0.99999): (2.1049959621026933e-05, -1.427999059439107),
    ("DrudeSphere", 0.999999): (2.066139709503377e-06, -1.408661119236565),
    ("DrudeSphere", BETA_MAX): (2.042551263910598e-09, -1.3968787525800048),
    ("TopHat", 0.99999): (-3.506134420457371e-06, -0.02109994014788306),
    ("TopHat", 0.999999): (-3.7691165057326905e-07, -0.007971801198149477),
    ("TopHat", BETA_MAX): (-3.92109821672464e-10, -0.00037506179194147474),
    ("Ohmic", 0.99999): (0.012849405683263612, -643.7823289525555),
    ("Ohmic", 0.999999): (0.0005573647697580908, -280.05384662715466),
    ("Ohmic", BETA_MAX): (2.9668521339760137e-08, -16.213082381718873),
}

# (model, beta, T2) -> (Qdot at T1 = T2/2; drag)
GRID = {
    ("LorentzOscillator", 1e-08, 0.3): (0.0737133651648545, -1.509403069440094e-09),
    ("LorentzOscillator", 1e-08, 3.0): (64.18395767776033, -5.101627378716984e-07),
    ("LorentzOscillator", 1e-05, 0.3): (0.07371336518301012, -1.509403069672249e-06),
    ("LorentzOscillator", 1e-05, 3.0): (64.18395767028741, -0.0005101627378787303),
    ("LorentzOscillator", 0.001, 0.3): (0.0737135467212618, -0.0001509405390992457),
    ("LorentzOscillator", 0.001, 3.0): (64.18388294848012, -0.05101628081912077),
    ("LorentzOscillator", 0.499, 0.3): (0.11260567363861362, -0.10918023738137707),
    ("LorentzOscillator", 0.499, 3.0): (45.92551952641665, -26.387507519036703),
    ("LorentzOscillator", 0.5, 0.3): (0.11273038006274398, -0.10955931722172599),
    ("LorentzOscillator", 0.5, 3.0): (45.853837431084514, -26.44436152843322),
    ("LorentzOscillator", 0.501, 0.3): (0.11285503004456657, -0.10993959196153659),
    ("LorentzOscillator", 0.501, 3.0): (45.78202596076098, -26.501241261073968),
    ("LorentzOscillator", 0.95, 0.3): (0.06282033150342893, -0.6182713167351905),
    ("LorentzOscillator", 0.95, 3.0): (4.02020498947583, -53.92450848549799),
    ("DrudeSphere", 1e-08, 0.3): (0.06311664885083357, -8.737497265481166e-10),
    ("DrudeSphere", 1e-08, 3.0): (13.002260150850633, -1.09077116501106e-07),
    ("DrudeSphere", 1e-05, 0.3): (0.06311664885045444, -8.737497265824891e-07),
    ("DrudeSphere", 1e-05, 3.0): (13.00226014944249, -0.00010907711650299551),
    ("DrudeSphere", 0.001, 0.3): (0.06311664505955639, -8.737500702724949e-05),
    ("DrudeSphere", 0.001, 3.0): (13.002246069416785, -0.01090771353961458),
    ("DrudeSphere", 0.499, 0.3): (0.059595731691009624, -0.048510330882573116),
    ("DrudeSphere", 0.499, 3.0): (9.53088300633151, -5.702127543443034),
    ("DrudeSphere", 0.5, 0.3): (0.059570422317534635, -0.04863032096978227),
    ("DrudeSphere", 0.5, 3.0): (9.517113093502319, -5.714708637338529),
    ("DrudeSphere", 0.501, 0.3): (0.0595449653543726, -0.048750476618000284),
    ("DrudeSphere", 0.501, 3.0): (9.503317031208494, -5.727297688508908),
    ("DrudeSphere", 0.95, 0.3): (0.014788094431325083, -0.14478402164860277),
    ("DrudeSphere", 0.95, 3.0): (1.031037525555666, -12.91876988697585),
    ("TopHat", 1e-08, 0.3): (0.039637458951566354, -5.012573763273013e-10),
    ("TopHat", 1e-08, 3.0): (2.321710971748569, -1.5694071064842236e-08),
    ("TopHat", 1e-05, 0.3): (0.03963745894993594, -5.012573763375484e-07),
    ("TopHat", 1e-05, 3.0): (2.3217109714401216, -1.5694071064990568e-05),
    ("TopHat", 0.001, 0.3): (0.03963744264744023, -5.0125747879826325e-05),
    ("TopHat", 0.001, 3.0): (2.3217078872702213, -0.0015694072548144951),
    ("TopHat", 0.499, 0.3): (0.03430609810574045, -0.026395466550385504),
    ("TopHat", 0.499, 3.0): (1.5778525021882186, -0.801106736488003),
    ("TopHat", 0.5, 0.3): (0.034279332727763935, -0.026454382732819744),
    ("TopHat", 0.5, 3.0): (1.574977281707823, -0.8027803884288213),
    ("TopHat", 0.501, 0.3): (0.03425246847824871, -0.0265133388530151),
    ("TopHat", 0.501, 3.0): (1.572097290373408, -0.8044543938013068),
    ("TopHat", 0.95, 0.3): (0.005675990576021447, -0.0555536481141292),
    ("TopHat", 0.95, 3.0): (0.05440157361094492, -1.395399578309661),
    ("Ohmic", 1e-08, 0.3): (0.07866412874146203, -1.5131838277616526e-09),
    ("Ohmic", 1e-08, 3.0): (6694.524076179844, -8.970257252215692e-05),
    ("Ohmic", 1e-05, 0.3): (0.07866412876089318, -1.5131838280924983e-06),
    ("Ohmic", 1e-05, 3.0): (6694.524076164155, -0.0897025725271097),
    ("Ohmic", 0.001, 0.3): (0.07866432305326476, -0.0001513187136225494),
    ("Ohmic", 0.001, 3.0): (6694.523919289882, -8.970262205000376),
    ("Ohmic", 0.499, 0.3): (0.13843578445712396, -0.137076931305736),
    ("Ohmic", 0.499, 3.0): (6432.338631780791, -5193.956840974412),
    ("Ohmic", 0.5, 0.3): (0.1387327570813097, -0.13771620605332416),
    ("Ohmic", 0.5, 3.0): (6430.2691223969305, -5207.740090296846),
    ("Ohmic", 0.501, 0.3): (0.13903089700129845, -0.13835899655148262),
    ("Ohmic", 0.501, 3.0): (6428.186203694238, -5221.548261473561),
    ("Ohmic", 0.95, 0.3): (0.7162611084567257, -7.215531683809901),
    ("Ohmic", 0.95, 3.0): (1779.9411784444505, -17585.879525957815),
}

# mpmath values at 60 digits of the remaining 1D forms, with the same
# rules and edges as above (upper limit 80 D T2, 80 T1 for P):
#   F_x = -(2/(pi g^4)) Int w^4 a''(w) K(w/(g T2)) dw - b P(T1),
#   I2  = (2/(pi g^4)) Int w^4 a''(w) M1(w/(g T2)) dw,
#   P(T1) = (4/pi) Int w^4 a''(w) n(w, T1) dw = I1,
# with K and M1 the closed forms of KERNELS below.  The same run gives
# the drag -g^2 (...)(K + b M1) equal to every drag of ULTRA and GRID.
# (model, beta) -> (F_x at T1 = 0.5, T2 = 1; I2 at T2 = 1)
ULTRA_FORCE_ABSORBED = {
    ("LorentzOscillator", 0.99999): (-0.9821965890211483, 0.00045625462365045676),
    ("LorentzOscillator", 0.999999): (-0.9825295502677306, 5.0493445956573006e-05),
    ("LorentzOscillator", BETA_MAX): (-0.9825723369024592, 6.498150422219651e-08),
    ("DrudeSphere", 0.99999): (-0.3755063408991882, 0.00012157255098319878),
    ("DrudeSphere", 0.999999): (-0.3755917810497688, 1.3769108863159977e-05),
    ("DrudeSphere", BETA_MAX): (-0.3756030922516954, 1.859360036556182e-08),
    ("TopHat", 0.99999): (-0.19640578463356162, 2.2653829394203952e-05),
    ("TopHat", 0.999999): (-0.19642753225140505, 2.267804006582115e-06),
    ("TopHat", BETA_MAX): (-0.19642997807495774, 2.2688923766724586e-09),
    ("Ohmic", 0.99999): (-1.3152571539336873, 0.07643452483457866),
    ("Ohmic", 0.999999): (-1.3716010973850323, 0.00778675949928618),
    ("Ohmic", BETA_MAX): (-1.378821299714379, 7.851846426627694e-06),
}

# model -> P(0.5), the emitted intensity I1 at T1 = 0.5 and any beta
EMITTED = {
    "LorentzOscillator": 0.9825723944762844,
    "DrudeSphere": 0.3756031084271414,
    "TopHat": 0.19642998053952995,
    "Ohmic": 1.378829120513463,
}

# (model, beta, T2) -> (F_x at T1 = T2/2; I2)
GRID_FORCE_ABSORBED = {
    ("LorentzOscillator", 1e-08, 0.3): (-7.722694177915491e-10, 0.07417524131156399),
    ("LorentzOscillator", 1e-08, 3.0): (1.31676838905905e-07, 87.9291620081594),
    ("LorentzOscillator", 1e-05, 0.3): (-7.722694177684345e-07, 0.07417524132199693),
    ("LorentzOscillator", 1e-05, 3.0): (0.00013167683888832776, 87.92916200200324),
    ("LorentzOscillator", 0.001, 0.3): (-7.722691866436346e-05, 0.07417534564105263),
    ("LorentzOscillator", 0.001, 3.0): (0.013167666313306485, 87.92910044654549),
    ("LorentzOscillator", 0.499, 0.3): (-0.03435959028907975, 0.09592211423107233),
    ("LorentzOscillator", 0.499, 3.0): (4.127625315603436, 71.73040888930183),
    ("LorentzOscillator", 0.5, 0.3): (-0.03440573051323, 0.09598939095283848),
    ("LorentzOscillator", 0.5, 3.0): (4.124863425623126, 71.66147347429514),
    ("LorentzOscillator", 0.501, 0.3): (-0.034451680692859525, 0.09605661416415344),
    ("LorentzOscillator", 0.501, 3.0): (4.1220239319920475, 71.59236428108805),
    ("LorentzOscillator", 0.95, 0.3): (-0.006175779009473317, 0.057415217591138774),
    ("LorentzOscillator", 0.95, 3.0): (-14.753280382913017, 13.74979295610752),
    ("DrudeSphere", 1e-08, 0.3): (-2.425832380397809e-10, 0.06497765389825319),
    ("DrudeSphere", 1e-08, 3.0): (2.0945485007400334e-08, 17.853742965369822),
    ("DrudeSphere", 1e-05, 0.3): (-2.4258323801482793e-07, 0.06497765389544824),
    ("DrudeSphere", 1e-05, 3.0): (2.094548500443166e-05, 17.853742964171133),
    ("DrudeSphere", 0.001, 0.3): (-2.425829885098493e-05, 0.06497762584867717),
    ("DrudeSphere", 0.001, 3.0): (0.0020945455320612763, 17.853730978481504),
    ("DrudeSphere", 0.499, 0.3): (-0.008912048975654728, 0.057009624299577545),
    ("DrudeSphere", 0.499, 3.0): (0.6306513552764373, 14.697060847133642),
    ("DrudeSphere", 0.5, 0.3): (-0.00891670609142585, 0.05697307431924133),
    ("DrudeSphere", 0.5, 3.0): (0.6300334249963505, 14.683612620519684),
    ("DrudeSphere", 0.501, 0.3): (-0.008921281061610128, 0.056936408589925554),
    ("DrudeSphere", 0.501, 3.0): (0.6294021637411702, 14.67013032976201),
    ("DrudeSphere", 0.95, 0.3): (-0.0006948964203072303, 0.015988947879452844),
    ("DrudeSphere", 0.95, 3.0): (-2.872763227715522, 3.153395273745109),
    ("TopHat", 1e-08, 0.3): (-1.0488278681163773e-10, 0.04134020364400948),
    ("TopHat", 1e-08, 3.0): (7.523038652643458e-09, 3.878603477648096),
    ("TopHat", 1e-05, 0.3): (-1.048827867985515e-07, 0.041340203641330245),
    ("TopHat", 1e-05, 3.0): (7.52303865173236e-06, 3.878603477414879),
    ("TopHat", 0.001, 0.3): (-1.0488265594903814e-05, 0.041340176851617755),
    ("TopHat", 0.001, 3.0): (0.0007523029541659351, 3.8786011454727025),
    ("TopHat", 0.499, 0.3): (-0.003600838388744165, 0.03421202444220024),
    ("TopHat", 0.499, 3.0): (0.24729465764424086, 3.258145042252222),
    ("TopHat", 0.5, 0.3): (-0.0036014942476437868, 0.03418133029638517),
    ("TopHat", 0.5, 3.0): (0.24720446604306073, 3.2554720206288805),
    ("TopHat", 0.501, 0.3): (-0.003602111057513895, 0.03415055553087738),
    ("TopHat", 0.501, 3.0): (0.24711008422480205, 3.252791948469561),
    ("TopHat", 0.95, 0.3): (-0.0002491245528946418, 0.007142066943214664),
    ("TopHat", 0.95, 3.0): (-0.8653329636389161, 0.7892277640535018),
    ("Ohmic", 1e-08, 0.3): (-7.265425403470321e-10, 0.08014934888627968),
    ("Ohmic", 1e-08, 3.0): (-2.2757331760358473e-05, 7068.59402267819),
    ("Ohmic", 1e-05, 0.3): (-7.265425404049023e-07, 0.08014934889844541),
    ("Ohmic", 1e-05, 3.0): (-0.022757331758773622, 7068.594022434929),
    ("Ohmic", 0.001, 0.3): (-7.265431190488293e-05, 0.08014947054377052),
    ("Ohmic", 0.001, 3.0): (-2.2757315911798797, 7068.591590056637),
    ("Ohmic", 0.499, 0.3): (-0.045093511295716225, 0.11741934246537923),
    ("Ohmic", 0.499, 3.0): (-920.0004478785299, 6347.328354787751),
    ("Ohmic", 0.5, 0.3): (-0.04522770133245104, 0.11760412655990184),
    ("Ohmic", 0.5, 3.0): (-920.894008698892, 6343.892064545831),
    ("Ohmic", 0.501, 0.3): (-0.04536223768044204, 0.11778963606821466),
    ("Ohmic", 0.501, 3.0): (-921.781121529698, 6340.443808306206),
    ("Ohmic", 0.95, 0.3): (-0.23657729371873287, 0.4929978995687472),
    ("Ohmic", 0.95, 3.0): (-242.86291547343825, 1923.2913552430307),
}

# Angular kernels at 60 digits (mpmath 1.3.0, closed forms in log, expm1
# and polylog(2, .) with guard digits against their cancellation at small
# beta and c; spot-checked against mp.quad of the x integrals to 1e-41):
#   K  = Int x u^-3 n(c/u) dx
#      = [Li2(e^-b) - Li2(e^-a) - beta (b ln(1 - e^-b) + a ln(1 - e^-a))] / (beta^2 c^2),
#   M1 = Int u^-3 n(c/u) dx = ln[(1 - e^-b)/(1 - e^-a)] / (beta c) - beta K,
# u = 1 + beta x, a = c/(1+beta), b = c/(1-beta), beta and c the binary floats.
# The c values include the largest errors of a 200-point scan over [1e-5, 60].
# (beta, c) -> (K, M1)
KERNELS = {
    (1e-08, 1e-05): (-0.0013333233333555556, 199999.00000166667),
    (1e-08, 0.001): (-1.3323335555555502e-5, 1999.000166666664),
    (1e-08, 0.05): (-2.5677777083388446e-7, 39.008332986131779),
    (1e-08, 0.5): (-1.7770888020626755e-8, 3.0829881650735968),
    (1e-08, 1.0161926497492177): (-5.322630635643555e-9, 1.1346511417583239),
    (1e-08, 1.0990997544419705): (-4.5025469500729467e-9, 0.99926915761433),
    (1e-08, 2.5): (-1.6480299557910049e-10, 0.17885097966770402),
    (1e-08, 6.0): (4.9945224574584592e-11, 0.0049698233136891711),
    (1e-08, 15.0): (2.447220248387544e-14, 6.118048281561694e-7),
    (1e-08, 47.420711484963135): (7.5325309612483488e-28, 5.087174907451648e-21),
    (1e-08, 51.28957817343888): (1.7099419727894002e-29, 1.0623049760227326e-22),
    (1e-08, 60.0): (3.3274740898247744e-33, 1.7513021525393955e-26),
    (0.001, 1e-05): (-133.33249333372698, 199999.19999986665),
    (0.001, 0.001): (-1.332335153557928, 1999.0021646692164),
    (0.001, 0.05): (-0.02567780711674924, 39.008371013944181),
    (0.001, 0.5): (-0.0017770903315572434, 3.0829904404469604),
    (0.001, 1.0161926497492177): (-0.00053226328452564749, 1.134651654863549),
    (0.001, 1.0990997544419705): (-0.00045025484458165471, 0.99926956329596832),
    (0.001, 2.5): (-1.6480240025185319e-5, 0.17885092715042592),
    (0.001, 6.0): (4.9945185868873553e-6, 0.0049698234375560973),
    (0.001, 15.0): (2.4472373790074522e-9, 6.1181675838437749e-7),
    (0.001, 47.420711484963135): (7.533814525881866e-23, 5.088770162567128e-21),
    (0.001, 51.28957817343888): (1.7102907181475946e-24, 1.0627002439067241e-22),
    (0.001, 60.0): (3.3284405432957802e-28, 1.7522164547958338e-26),
    (0.3, 1e-05): (-44779.027652948132, 219779.01219887264),
    (0.3, 0.001): (-447.4317126516223, 2196.5948419812634),
    (0.3, 0.05): (-8.5980259292823766, 42.759849885312269),
    (0.3, 0.5): (-0.57719840997311012, 3.3012712537121189),
    (0.3, 1.0161926497492177): (-0.16545508751520748, 1.1813673258764274),
    (0.3, 1.0990997544419705): (-0.13882528821703986, 1.03573959093955),
    (0.3, 2.5): (-0.0032817104782475155, 0.17363644778867984),
    (0.3, 6.0): (0.0013973393700347218, 0.0050020373269498449),
    (0.3, 15.0): (1.1851146816766773e-6, 1.8105601947739406e-6),
    (0.3, 47.420711484963135): (7.0694435835861541e-18, 7.9937173244332242e-18),
    (0.3, 51.28957817343888): (3.3583328930702686e-19, 3.7612315638515957e-19),
    (0.3, 60.0): (3.5798712324836566e-22, 3.9421456266691283e-22),
    (0.4999, 1e-05): (-93853.980175013811, 266629.34210625957),
    (0.4999, 0.001): (-937.66047548968879, 2664.5343180116133),
    (0.4999, 0.05): (-17.895658681973217, 51.570307786671427),
    (0.4999, 0.5): (-1.1185811666659715, 3.7670438812450124),
    (0.4999, 1.0161926497492177): (-0.28949184621930581, 1.2638949037140478),
    (0.4999, 1.0990997544419705): (-0.23836653867628736, 1.0970777717314062),
    (0.4999, 2.5): (-0.00034695575421751293, 0.16223820908750472),
    (0.4999, 6.0): (0.002067921331960767, 0.0051255822872767427),
    (0.4999, 15.0): (3.2271230537799626e-6, 4.4373980265483017e-6),
    (0.4999, 47.420711484963135): (4.8987179350448731e-16, 5.3950156875321038e-16),
    (0.4999, 51.28957817343888): (3.4514549379829834e-17, 3.7731125753013545e-17),
    (0.4999, 60.0): (8.9471844945952373e-20, 9.6535932264717574e-20),
    (0.5, 1e-05): (-93887.528979834305, 266664.8888931687),
    (0.5, 0.001): (-937.99555314647779, 2664.8893168724102),
    (0.5, 0.05): (-17.901961726253648, 51.576952519810693),
    (0.5, 0.5): (-1.1189149312246201, 3.7673713034826087),
    (0.5, 1.0161926497492177): (-0.28955610547472459, 1.2639445198211542),
    (0.5, 1.0990997544419705): (-0.23841612333103779, 1.0971129604237457),
    (0.5, 2.5): (-0.00034387399574225495, 0.16223041684047691),
    (0.5, 6.0): (0.0020681898786677741, 0.0051256725922186071),
    (0.5, 15.0): (3.2285219251267135e-6, 4.4392004076917072e-6),
    (0.5, 47.420711484963135): (4.9077891743915971e-16, 5.4049683177792057e-16),
    (0.5, 51.28957817343888): (3.4584383672685699e-17, 3.7807226621698824e-17),
    (0.5, 60.0): (8.9687478722822435e-20, 9.6768069148308416e-20),
    (0.6, 1e-05): (-135750.10151692218, 312497.55860087073),
    (0.6, 0.001): (-1356.0513284321236, 3122.5593058267776),
    (0.6, 0.05): (-25.710896118854914, 60.094191946762627),
    (0.6, 0.5): (-1.4999114802052201, 4.1591320232804214),
    (0.6, 1.0161926497492177): (-0.35239112288886286, 1.3146386158640019),
    (0.6, 1.0990997544419705): (-0.28513828220076373, 1.1312311774144033),
    (0.6, 2.5): (0.0035322979524002115, 0.15341276763432235),
    (0.6, 6.0): (0.0023065321254791888, 0.0052267462379863268),
    (0.6, 15.0): (4.8432441241778973e-6, 6.5187015828647494e-6),
    (0.6, 47.420711484963135): (2.7863078554042794e-15, 3.051942992920706e-15),
    (0.6, 51.28957817343888): (2.3055443751033455e-16, 2.5078561871470184e-16),
    (0.6, 60.0): (8.5859901716620466e-19, 9.2249475797857338e-19),
    (0.9, 1e-05): (-806054.7277362426, 1052603.8784249406),
    (0.9, 0.001): (-8035.8949927428293, 10498.645818115612),
    (0.9, 0.05): (-137.73938735253375, 184.36462795128576),
    (0.9, 0.5): (-3.1089507272604508, 6.0356899319059189),
    (0.9, 1.0161926497492177): (-0.3364108267765498, 1.2663675385981892),
    (0.9, 1.0990997544419705): (-0.24563388804312273, 1.0527390820824949),
    (0.9, 2.5): (0.016015328030025182, 0.12440103690213024),
    (0.9, 6.0): (0.0027606504263973301, 0.0055608559371495069),
    (0.9, 15.0): (1.2487737956333214e-5, 1.637358666281976e-5),
    (0.9, 47.420711484963135): (1.7061585915031496e-13, 1.8571992457398497e-13),
    (0.9, 51.28957817343888): (2.0661021556750142e-14, 2.2346182930896138e-14),
    (0.9, 60.0): (1.8144040903712242e-16, 1.9401238363643161e-16),
    (0.999999999, 1e-05): (-16448070093.926373, 16449290684.994027),
    (0.999999999, 0.001): (-1636832.9801695445, 1644434.1309889383),
    (0.999999999, 0.05): (-574.00888603056191, 648.03595377236262),
    (0.999999999, 0.5): (-2.6231181469935646, 5.6405012453996909),
    (0.999999999, 1.0161926497492177): (-0.2541443647535011, 1.1598768543155237),
    (0.999999999, 1.0990997544419705): (-0.18219694485278597, 0.96545492483098559),
    (0.999999999, 2.5): (0.017890795328922126, 0.11714103075857714),
    (0.999999999, 6.0): (0.00285518548602512, 0.0056563446693596027),
    (0.999999999, 15.0): (1.5982753155804911e-5, 2.0899738607251814e-5),
    (0.999999999, 47.420711484963135): (5.0934393406482861e-13, 5.5419958844954338e-13),
    (0.999999999, 51.28957817343888): (6.8277318488308334e-14, 7.3818231680895348e-14),
    (0.999999999, 60.0): (7.5380850674497195e-16, 8.0579530031448577e-16),
}

GRID_BETAS = (1e-8, 1e-5, 1e-3, _CLOSED_FORM_BETA - 1e-3, _CLOSED_FORM_BETA,
              _CLOSED_FORM_BETA + 1e-3, 0.95)
ULTRA_BETAS = (0.99999, 0.999999, BETA_MAX)


def _meets(q, expected: float) -> bool:
    return abs(q.value - expected) <= q.error


def test_odd_and_absorption_kernels_meet_mpmath_within_their_rounding_bounds():
    """K and M1 on both sides of the x-rule / closed-form crossover.

    The bounds are the rounding terms force_lab and intensity add:
    _FORCE_ROUNDING * beta * M1 for K, which changes sign in c, and
    _ABSORB_ROUNDING * M1 for M1.
    """
    misses = []
    for beta in sorted({b for b, _ in KERNELS}):
        cs = sorted(c for b, c in KERNELS if b == beta)
        k = observables._bath_kernel(np.array(cs), beta, "force")
        m = observables._bath_kernel(np.array(cs), beta, "absorb")
        for c, k_c, m_c in zip(cs, k, m):
            k_ref, m_ref = KERNELS[beta, c]
            if not (abs(k_c - k_ref) <= observables._FORCE_ROUNDING * beta * m_ref
                    and abs(m_c - m_ref) <= observables._ABSORB_ROUNDING * m_ref):
                misses.append((beta, c, k_c, k_ref, m_c, m_ref))
    assert misses == []


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=model_label)
@pytest.mark.parametrize("beta", ULTRA_BETAS)
def test_ultra_relativistic_values_meet_mpmath(model, beta):
    qdot, drag = ULTRA[model_label(model), beta]
    state, bath = ParticleState(beta, 1.0, 0.5), BathSpec(1.0)
    q = heating_rate(state, bath, model, SPEC)
    d = drag_combination(state, bath, model, SPEC)
    assert _meets(q, qdot), (q.value, q.error, qdot)
    assert _meets(d, drag), (d.value, d.error, drag)


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=model_label)
@pytest.mark.parametrize("beta", ULTRA_BETAS)
def test_ultra_relativistic_force_and_intensity_meet_mpmath(model, beta):
    label = model_label(model)
    fx, absorbed_ref = ULTRA_FORCE_ABSORBED[label, beta]
    _, drag = ULTRA[label, beta]
    state, bath = ParticleState(beta, 1.0, 0.5), BathSpec(1.0)
    f = force_lab(state, bath, model, SPEC)
    fp = force_rest_frame(state, bath, model, SPEC)
    _, emitted, absorbed = intensity(state, bath, model, SPEC)
    assert _meets(f, fx), (f.value, f.error, fx)
    assert _meets(fp, drag), (fp.value, fp.error, drag)
    assert _meets(emitted, EMITTED[label]), (emitted.value, emitted.error, EMITTED[label])
    assert _meets(absorbed, absorbed_ref), (absorbed.value, absorbed.error, absorbed_ref)


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=model_label)
def test_force_and_absorbed_power_meet_mpmath_across_speed_and_the_crossover(model):
    for beta, t2 in itertools.product(GRID_BETAS, (0.3, 3.0)):
        fx, absorbed_ref = GRID_FORCE_ABSORBED[model_label(model), beta, t2]
        state, bath = ParticleState(beta, 1.0, t2 / 2.0), BathSpec(t2)
        f = force_lab(state, bath, model, SPEC)
        absorbed = intensity(state, bath, model, SPEC)[2]
        assert _meets(f, fx), (beta, t2, f.value, f.error, fx)
        assert _meets(absorbed, absorbed_ref), (beta, t2, absorbed.value, absorbed.error,
                                                absorbed_ref)


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=model_label)
def test_values_meet_mpmath_across_speed_and_the_crossover(model):
    for beta, t2 in itertools.product(GRID_BETAS, (0.3, 3.0)):
        qdot, drag = GRID[model_label(model), beta, t2]
        state, bath = ParticleState(beta, 1.0, t2 / 2.0), BathSpec(t2)
        q = heating_rate(state, bath, model, SPEC)
        d = drag_combination(state, bath, model, SPEC)
        assert _meets(q, qdot), (beta, t2, q.value, q.error, qdot)
        assert _meets(d, drag), (beta, t2, d.value, d.error, drag)


def test_no_2d_quadrature_behind_heating_and_drag(monkeypatch, capsys):
    """Every production observable, and the CLI commands that print them, stay 1D."""
    calls = []
    for module in (observables, consistency):

        def counted(*args, _original=module.integrate_omega_x, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "integrate_omega_x", counted)
    for model, beta in itertools.product(REFERENCE_MODELS, (0.0, 0.3, 0.9)):
        state, bath = ParticleState(beta, 1.0, 0.7), BathSpec(1.3)
        q = heating_rate(state, bath, model, SPEC)
        d = drag_combination(state, bath, model, SPEC)
        assert q.diagnostics["neval"] == d.diagnostics["neval"] == 0
        assert q.diagnostics["nodes"] > 0
        if beta > 0.0:
            assert d.diagnostics["nodes"] > 0
        bundle = evaluate_bundle(state, bath, model, SPEC)
        for name in ("force_lab", "heating_rate", "intensity_emitted", "intensity_absorbed",
                     "force_rest_frame"):
            assert getattr(bundle, name).diagnostics["neval"] == 0, name
    for command in ("force", "intensity", "restframe-force"):
        assert cli.run([command, "--beta", "0.5", "--t1", "0.7", "--t2", "1.3"]) == 0
    capsys.readouterr()
    assert calls == []


def _load_reference(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ is read-only here
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_heating_rate_meets_the_reference_where_its_terms_cancel(monkeypatch):
    """At T1 = T2 the two terms of Qdot cancel to a share of about beta^2.

    The engine's error must still cover its distance to the reference,
    the reference's own error included, with no safety factor.
    """
    reference = _load_reference(monkeypatch)
    misses = []
    for model, beta, t in itertools.product(
        REFERENCE_MODELS, (1e-3, 0.011, 0.05, 0.2, 0.596, 0.9), (0.3, 0.69, 1.28, 3.0)
    ):
        q = heating_rate(ParticleState(beta, 1.0, t), BathSpec(t), model, SPEC)
        ref, ref_err = reference.heating_rate(model_to_dict(model), beta, t, t)
        if not abs(q.value - ref) <= q.error + ref_err:
            misses.append((model_label(model), beta, t, q.value, q.error, ref, ref_err))
    assert misses == []
