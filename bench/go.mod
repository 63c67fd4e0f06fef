module mistique/bench

go 1.22

require mistique v0.0.0

replace mistique => ../
