module wormnet/bench

go 1.22

require wormnet v0.0.0

replace wormnet => ../
